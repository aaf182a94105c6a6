// Scratch paths under the system temp directory that carry the test
// process's id, so suites of two builds run side by side (say a release
// and an asan tree) never write, read or delete each other's files.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace v6d::temp_paths {

/// temp_directory_path() / "<stem>_<pid><extension>" for `name`.
inline std::filesystem::path process_temp_path(const std::string& name) {
  const std::filesystem::path file(name);
  return std::filesystem::temp_directory_path() /
         (file.stem().string() + "_" + std::to_string(::getpid()) +
          file.extension().string());
}

/// A per-process scratch directory, emptied when created and removed with
/// its contents when the guard goes out of scope, so runs leave nothing
/// behind under the pid-suffixed names.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(process_temp_path(name)) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace v6d::temp_paths
