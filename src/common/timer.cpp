#include "common/timer.hpp"

#include <algorithm>

#include "common/trace.hpp"

namespace v6d {

namespace {

thread_local ScopedTimer* t_open = nullptr;  // innermost open region

// `path` names the node or ends in `name` at a '/' boundary.
bool path_matches(const std::string& path, const std::string& name) {
  if (path.size() < name.size() ||
      path.compare(path.size() - name.size(), name.size(), name) != 0)
    return false;
  return path.size() == name.size() ||
         path[path.size() - name.size() - 1] == '/';
}

}  // namespace

TimerRegistry::Node* TimerRegistry::Node::child(const char* leaf) {
  for (const auto& c : children)
    if (c->name == leaf) return c.get();
  children.push_back(std::make_unique<Node>());
  children.back()->name = leaf;
  return children.back().get();
}

void TimerRegistry::Node::list(const std::string& prefix,
                               std::vector<TimerBucket>& out) const {
  for (const auto& c : children) {
    const std::string path = prefix + c->name;
    out.push_back({path, c->total_ns * 1e-9, c->self_ns * 1e-9, c->count});
    c->list(path + '/', out);
  }
}

void TimerRegistry::Node::add(const Node& other) {
  for (const auto& c : other.children) {
    Node* node = child(c->name.c_str());
    node->total_ns += c->total_ns;
    node->self_ns += c->self_ns;
    node->count += c->count;
    node->samples.insert(node->samples.end(), c->samples.begin(),
                         c->samples.end());
    node->add(*c);
  }
}

std::vector<TimerBucket> TimerRegistry::buckets() const {
  std::vector<TimerBucket> out;
  root_.list("", out);
  return out;
}

double TimerRegistry::total(const std::string& name) const {
  double sum = 0.0;
  for (const auto& b : buckets())
    if (path_matches(b.path, name)) sum += b.seconds;
  return sum;
}

double TimerRegistry::self(const std::string& name) const {
  double sum = 0.0;
  for (const auto& b : buckets())
    if (path_matches(b.path, name)) sum += b.self_seconds;
  return sum;
}

const std::vector<double>& TimerRegistry::samples(
    const std::string& name) const {
  static const std::vector<double> none;
  for (const auto& c : root_.children)
    if (c->name == name) return c->samples;
  return none;
}

double TimerRegistry::median_sample(const std::string& name) const {
  std::vector<double> v = samples(name);
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void TimerRegistry::merge(const TimerRegistry& other) {
  root_.add(other.root_);
}

ScopedTimer::ScopedTimer(const char* name)
    : ScopedTimer(t_open ? t_open->registry_ : nullptr, name) {}

ScopedTimer::ScopedTimer(TimerRegistry& registry, const char* name)
    : ScopedTimer(&registry, name) {}

ScopedTimer::ScopedTimer(TimerRegistry* registry, const char* name)
    : name_(name), parent_(t_open), registry_(registry) {
  if (registry_ != nullptr)
    node_ = (nested() ? parent_->node_ : &registry_->root_)->child(name);
  t_open = this;
  traced_ = trace::enabled();
  t0_ = trace::clock_ns();
}

ScopedTimer::~ScopedTimer() {
  const std::uint64_t t1 = trace::clock_ns();
  t_open = parent_;
  if (traced_)
    trace::emit_span(name_, trace::since_epoch(t0_), trace::since_epoch(t1));
  if (registry_ == nullptr) return;
  const std::uint64_t ns = t1 - t0_;
  node_->total_ns += ns;
  node_->self_ns += ns - child_ns_;
  node_->count += 1;
  if (nested())
    parent_->child_ns_ += ns;
  else
    node_->samples.push_back(static_cast<double>(ns) * 1e-9);
}

}  // namespace v6d
