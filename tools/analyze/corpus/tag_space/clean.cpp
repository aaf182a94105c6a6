// Corpus: tag-space — clean fixture; disjoint ranges, all above the
// reserved floor, zero findings expected.

constexpr int kFirstUserTag = 64;

struct Comm {
  void send(int peer, int tag, const double* p, int n);
  void recv(int peer, int tag, double* p, int n);
};

// Spaced 16 apart; push_axis consumes [base+0, base+9].
constexpr int kFieldTagBase = 128;
constexpr int kFluxTagBase = 144;

void push_axis(Comm& comm, const double* out, double* in, int tag_base,
               int axis) {
  const int tag_fwd = tag_base + axis * 4;
  comm.send(1, tag_fwd, out, 8);
  comm.recv(0, tag_base + axis * 4 + 1, in, 8);
}

void exchange(Comm& comm, const double* out, double* in) {
  push_axis(comm, out, in, kFieldTagBase, 0);
  push_axis(comm, out, in, kFluxTagBase, 1);
}

// A folded constant expression well clear of every named range.
void gather(Comm& comm, double* in) {
  constexpr int kGatherTag = 0x200 + 3;
  comm.recv(0, kGatherTag, in, 8);
}

// An anchored-but-unfoldable local (an axis-indexed face tag): bounded to
// [kGhostTagBase + 1, kGhostTagBase + 9] via the documented axis bound,
// disjoint from every other anchor above.
constexpr int kGhostTagBase = 160;

void anchored_local(Comm& comm, const double* out, int axis) {
  const int tag_fwd = kGhostTagBase + axis * 4 + 1;
  comm.send(1, tag_fwd, out, 8);
}

// A declaration that merely *looks* like a p2p call (`recv_bytes(n, 0)`
// constructor syntax) has no receiver and is not traffic.
struct Recorder {
  void observe(int n) {
    long recv_bytes(n);
    recv_bytes = 0;
    (void)recv_bytes;
  }
};
