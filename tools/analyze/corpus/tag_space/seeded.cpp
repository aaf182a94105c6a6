// Corpus: tag-space — seeded collisions and unprovable tags.

constexpr int kFirstUserTag = 64;

struct Payload {};

struct Comm {
  void send(int peer, int tag, const double* p, int n);
  void send(int peer, int tag, Payload payload);  // takes the payload over
  void recv(int peer, int tag, double* p, int n);
};

constexpr int kAlphaTagBase = 100;
constexpr int kBetaTagBase = 104;  // SEED(tag-space) inside alpha's span

// Consumer: offsets tag_base by axis*4 + 1, so an anchor passed here
// owns [base+1, base+9] — kBetaTagBase at 104 lands inside kAlpha's.
void push_axis(Comm& comm, const double* p, int tag_base, int axis) {
  comm.send(1, tag_base + axis * 4 + 1, p, 8);
}

void alpha(Comm& comm, const double* p) {
  push_axis(comm, p, kAlphaTagBase, 0);
}

void beta(Comm& comm, double* p) {
  comm.recv(0, kBetaTagBase, p, 8);
}

// Tag 7 sits below kFirstUserTag: collides with the transport's
// reserved internal collective channel.
void low_tag(Comm& comm, const double* p) {
  comm.send(1, 7, p, 8);  // SEED(tag-space)
}

// A raw literal inside a named exchange's range cross-matches with it.
void inside_range(Comm& comm, double* p) {
  comm.recv(0, 101, p, 8);  // SEED(tag-space)
}

// Runtime-computed tag the analysis cannot bound.
void opaque(Comm& comm, const double* p, int step) {
  comm.send(1, step * 2, p, 8);  // SEED(tag-space)
}

// The owning send keeps its tag at argument 1: a moved payload under a
// reserved tag collides like any other send.
void moved_low_tag(Comm& comm, Payload payload, int dir) {
  comm.send(1, 5 + dir, static_cast<Payload&&>(payload));  // SEED(tag-space)
}
