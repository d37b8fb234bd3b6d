// Seeded inputs of the end-to-end benchmark.
//
// Every program is composed from the shapes in bench/programs.hpp (the
// header is included, not copied), so a change to those shapes changes the
// benchmark's inputs with them. The seed picks the data constants and the
// edit streams; it never changes how much work a workload does or the
// traffic its programs send, so runs under different seeds measure the same
// thing and count metrics repeat exactly. The order of the mix's calls is
// fixed: seeding it made one seed's cold build 10% slower than another's,
// run after run, with the same procedure and summary counts.
//
// Why each workload and size (timings from a 4-CPU machine):
//
// * cold_build -- one 1500-procedure program: 1446 fan-out leaves
//   (cloning_fanout's), a 50-link serial chain (chain_fanout with no wide
//   leaves), a hub cloned under 4 decompositions, and fig15's remapping
//   callees. A cold build takes ~0.3 s at jobs = 4 (IPA ~110 ms, codegen
//   ~130 ms, parse and print ~15 ms each), so a 15 s run holds ~45 builds.
//   The chain bounds how much of codegen can run in parallel, the hub adds
//   a cloning round, and fig15 makes the program move data at run time
//   (section 6). Arrays have 32
//   elements: with 64, the hub's loops double the 6504 messages one
//   execution sends, and executing every distinct program once no longer
//   fits beside the measured loop. Builds use no cache directory: writing
//   the ~3000 blobs of one build took from 0.15 s to 1.9 s as the shared
//   disk's metadata latency changed, several times the compile itself.
// * edit_rebuild -- the same program, rebuilt by a fresh Compiler on a
//   cache directory warmed in set-up, with one seeded leaf or chain link
//   edited per build (a new stencil coefficient: the body changes, the
//   exported interface does not) and 25% unchanged repeats. Section 8's
//   recompilation tests then regenerate one procedure; cache reads and IPA
//   dominate. The final values of x depend only on the last ~20 calls, so
//   an edit far from the end is guarded by the byte-identity check against
//   a cold compile rather than by the numeric one.
// * serve_edit -- two 300-procedure programs of the same mix, one per
//   client, 75% repeats (mostly AST-cache hits; each distinct source costs a
//   checked run after the loop). One option set means one session, whose
//   lock serializes the compiles: a request waits for about one other, and
//   a 15 s run serves ~450 requests. The service compiles at jobs = 1; four
//   clients, or jobs = 4, served fewer requests per second and spread wider
//   between runs (see kServeClients in workloads.cpp).
// * spmd_run -- the five programs of tests/example_programs.hpp at sizes
//   where the threaded runtime, not compilation, dominates: jacobi
//   (16384 x 10 steps, compute and edge exchange), adi (96 x 96, 3 steps of
//   transposing remaps), stencil2d (Fig. 4 at 200), redistribution (Fig. 15
//   at 8192, block <-> cyclic) and dgefa (80, pivot broadcasts). Each runs
//   in 20-40 ms threaded at P = 4; the sizes make those times overlap, so
//   the median over the mix does not jump from one program to another.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, platform-independent generator, so one seed gives
/// byte-identical inputs on every standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  /// Uniform in [lo, hi].
  int64_t range(int64_t lo, int64_t hi);
  /// True with probability `share`.
  bool chance(double share);

 private:
  uint64_t state_;
};

/// The parameters of one composed mix program.
struct MixShape {
  int leaves = 0;    // fan-out leaves
  int chain = 0;     // serial call-chain links
  int variants = 0;  // decompositions the hub is cloned under
  int steps = 0;     // fig15 time steps (each calls the remapping callee twice)
  int64_t n = 0;     // extent of the 1-D arrays
  uint64_t data = 0;  // seeds the factor x is set to before the calls that read it
};

/// A mix of `procedures` procedures. The seed only picks the initial data,
/// so the work, the traffic and the procedure count are the same for every
/// seed while the computed values differ.
MixShape mix_shape(uint64_t seed, int procedures, int64_t n);
std::string mix_program(const MixShape& shape);

/// Names of the procedures an edit may touch (leaves and chain links), in
/// source order.
std::vector<std::string> editable_procedures(const std::string& source);

/// One step of an edit stream: `procedure` gets stencil coefficient
/// `coefficient`; an empty `procedure` repeats the previous build's source.
struct Edit {
  std::string procedure;
  std::string coefficient;
};

/// `source` with the stencil coefficient of `procedure` replaced. Throws
/// std::runtime_error when the procedure or its coefficient is missing.
std::string apply_edit(const std::string& source, const Edit& edit);

/// A seeded, unbounded stream of edits over one base program.
class EditStream {
 public:
  EditStream(uint64_t seed, std::string base, double repeat_share);
  /// The next edit and the full source it produces.
  Edit next(std::string* source);

 private:
  Rng rng_;
  std::string base_;
  std::vector<std::string> targets_;
  double repeat_share_;
  std::string last_;
};

struct NamedProgram {
  std::string name;
  std::string source;
};

/// The five runtime programs of spmd_run at their benchmark sizes; `seed`
/// picks the data constants of jacobi and adi.
std::vector<NamedProgram> spmd_programs(uint64_t seed);

/// Generator self-tests: same seed -> byte-identical sources and edit
/// streams, different seed -> different edits, and every edit changes
/// exactly one procedure. Returns the failures (empty = pass).
std::vector<std::string> generator_self_test();

}  // namespace perfbench
