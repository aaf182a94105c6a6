// Corpus: overlap-window — blocking calls and double-begins inside the
// begin*/finish* window.

constexpr int kFirstUserTag = 64;

struct Comm {
  void barrier();
  void recv(int peer, int tag, double* p, int n);
};

struct HaloPlan {
  void begin_axis(double* f, int axis);
  void finish_axis(double* f, int axis);
};

struct RecvHandle {
  void wait(int bytes);  // sized wait: checks the payload length
};

// A barrier between begin and finish serializes the overlap.
void blocked_window(Comm& comm, HaloPlan& halo, double* f) {
  halo.begin_axis(f, 0);
  comm.barrier();  // SEED(overlap-window)
  halo.finish_axis(f, 0);
}

// Two exchanges in flight on the same plan instance.
void double_begin(HaloPlan& halo, double* f) {
  halo.begin_axis(f, 0);
  halo.begin_axis(f, 1);  // SEED(overlap-window)
  halo.finish_axis(f, 1);
}

// A blocking point-to-point receive inside the window stalls the
// pipeline just as hard as a collective.
void recv_inside(Comm& comm, HaloPlan& halo, double* f, double* in) {
  halo.begin_axis(f, 1);
  comm.recv(0, 0x80, in, 4);  // SEED(overlap-window)
  halo.finish_axis(f, 1);
}

// A sized wait on a handle that is not the window's plan blocks as hard.
void foreign_sized_wait(RecvHandle& stray, HaloPlan& halo, double* f) {
  halo.begin_axis(f, 2);
  stray.wait(8);  // SEED(overlap-window)
  halo.finish_axis(f, 2);
}
