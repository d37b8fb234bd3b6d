#include "generator.hpp"

#include <stdexcept>

#include "bench/programs.hpp"

namespace perfbench {

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

int64_t Rng::range(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(next() % span);
}

bool Rng::chance(double share) {
  return static_cast<double>(next() >> 11) * 0x1.0p-53 < share;
}

namespace {

constexpr const char* kEnd = "      end\n";

/// A generated source split into its main program (through its `end`
/// line) and the subroutines after it.
struct Split {
  std::string main;
  std::string subroutines;
};

Split split_main(const std::string& src) {
  const size_t end = src.find(kEnd);
  if (end == std::string::npos)
    throw std::runtime_error("generator: source has no main-program end");
  const size_t cut = end + std::string(kEnd).size();
  return {src.substr(0, cut), src.substr(cut)};
}

/// The main program's statements after its initialization loop (the first
/// `enddo`) and before its `end`: the calls that give the shape its work.
std::string main_tail(const Split& s) {
  const std::string init_end = "      enddo\n";
  const size_t at = s.main.find(init_end);
  if (at == std::string::npos)
    throw std::runtime_error("generator: main program has no init loop");
  const size_t from = at + init_end.size();
  return s.main.substr(from, s.main.size() - std::string(kEnd).size() - from);
}

/// Split main-program statements into top-level statements: a single line,
/// or a `do` line through its `enddo` at the same indentation.
std::vector<std::string> statements(const std::string& text) {
  std::vector<std::string> out;
  size_t at = 0;
  while (at < text.size()) {
    size_t end = text.find('\n', at) + 1;
    if (text.compare(at, 9, "      do ") == 0) {
      const size_t close = text.find("\n      enddo\n", at);
      if (close == std::string::npos)
        throw std::runtime_error("generator: do without enddo");
      end = close + std::string("\n      enddo\n").size();
    }
    out.push_back(text.substr(at, end - at));
    at = end;
  }
  return out;
}

void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
  const size_t at = text.find(from);
  if (at == std::string::npos)
    throw std::runtime_error("generator: anchor '" + from + "' not found");
  text.replace(at, from.size(), to);
}

std::string jacobi(int64_t n, int64_t steps, int mult) {
  const std::string N = std::to_string(n);
  return "      program jacobi\n      real u(" + N + ")\n      real unew(" + N +
         ")\n      integer i, t\n      distribute u(block)\n"
         "      distribute unew(block)\n      do i = 1, " + N +
         "\n        u(i) = modp(i*" + std::to_string(mult) +
         ", 97) * 1.0\n      enddo\n      do t = 1, " + std::to_string(steps) +
         "\n        do i = 2, " + N +
         " - 1\n          unew(i) = 0.5 * (u(i-1) + u(i+1))\n        enddo\n"
         "        do i = 2, " + N + " - 1\n          u(i) = unew(i)\n"
         "        enddo\n      enddo\n      end\n";
}

std::string adi(int64_t n, int64_t steps, int mult) {
  const std::string N = std::to_string(n);
  const std::string decl = "      real u(" + N + "," + N + ")\n";
  return "      program adi\n" + decl +
         "      integer i, j, t\n      distribute u(block,:)\n"
         "      do i = 1, " + N + "\n        do j = 1, " + N +
         "\n          u(i,j) = modp(i*" + std::to_string(mult) +
         " + j*5, 11) + 1\n        enddo\n      enddo\n      do t = 1, " +
         std::to_string(steps) +
         "\n        call rowsweep(u)\n        distribute u(:,block)\n"
         "        call colsweep(u)\n        distribute u(block,:)\n"
         "      enddo\n      end\n\n      subroutine rowsweep(u)\n" + decl +
         "      integer i, j\n      do i = 1, " + N + "\n        do j = 2, " +
         N + "\n          u(i,j) = u(i,j) + 0.5*u(i,j-1)\n        enddo\n"
         "      enddo\n      end\n\n      subroutine colsweep(u)\n" + decl +
         "      integer i, j\n      do j = 1, " + N + "\n        do i = 2, " +
         N + "\n          u(i,j) = u(i,j) + 0.5*u(i-1,j)\n        enddo\n"
         "      enddo\n      end\n";
}

}  // namespace

MixShape mix_shape(uint64_t seed, int procedures, int64_t n) {
  MixShape s;
  s.chain = procedures / 30;
  s.variants = 4;
  s.steps = 5;
  // main + hub + fig15's two callees + the chain; the rest are leaves.
  s.leaves = procedures - 4 - s.chain;
  s.n = n;
  s.data = seed;
  return s;
}

std::string mix_program(const MixShape& shape) {
  // Leaves + cloned hub form the base; the chain and fig15's remapping
  // callee are spliced into its main program. fig15's calls come first so
  // the final values of x depend on the leaves and the chain after them;
  // those calls (and the hub loops) run in one fixed shuffled order.
  Split base = split_main(
      fortd::bench::cloning_fanout(shape.leaves, shape.variants, shape.n));
  const Split chain =
      split_main(fortd::bench::chain_fanout(shape.chain, 0, shape.n));
  Split remap = split_main(fortd::bench::fig15(shape.n, shape.steps));
  // fig15's f2 sets every x(i) before the leaves and the chain run; the
  // seed picks its factor.
  Rng data(shape.data ^ 0x6d69785f64617461ull);
  replace_once(remap.subroutines, "        x(i) = 2.0 * i\n",
               "        x(i) = 2." + std::to_string(data.range(100, 999)) + " * i\n");

  const std::string base_tail = main_tail(base);
  std::string main = base.main.substr(
      0, base.main.size() - base_tail.size() - std::string(kEnd).size());
  replace_once(main, "      integer i\n", "      integer i, k\n");
  std::vector<std::string> calls = statements(base_tail + main_tail(chain));
  Rng rng(0x6d69785f6f726465ull);
  for (size_t i = calls.size(); i > 1; --i)
    std::swap(calls[i - 1], calls[rng.next() % i]);
  main += main_tail(remap);
  for (const std::string& call : calls) main += call;
  main += kEnd;
  return main + base.subroutines + chain.subroutines + remap.subroutines;
}

std::vector<std::string> editable_procedures(const std::string& source) {
  std::vector<std::string> names;
  const std::string marker = "\n      subroutine ";
  for (size_t at = source.find(marker); at != std::string::npos;
       at = source.find(marker, at + 1)) {
    const size_t from = at + marker.size();
    const std::string name =
        source.substr(from, source.find('(', from) - from);
    if (name.rfind("leaf", 0) == 0 || name.rfind("chain", 0) == 0)
      names.push_back(name);
  }
  return names;
}

std::string apply_edit(const std::string& source, const Edit& edit) {
  const std::string header = "\n      subroutine " + edit.procedure + "(";
  const size_t at = source.find(header);
  if (at == std::string::npos)
    throw std::runtime_error("generator: no procedure " + edit.procedure);
  const size_t end = source.find(kEnd, at);
  const std::string stencil = "= 0.5*a(";
  const size_t coeff = source.find(stencil, at);
  if (coeff == std::string::npos || coeff > end)
    throw std::runtime_error("generator: " + edit.procedure +
                             " has no stencil coefficient");
  std::string out = source;
  out.replace(coeff + 2, 3, edit.coefficient);
  return out;
}

EditStream::EditStream(uint64_t seed, std::string base, double repeat_share)
    : rng_(seed ^ 0x6564697473747265ull), base_(std::move(base)),
      targets_(editable_procedures(base_)), repeat_share_(repeat_share) {
  if (targets_.empty())
    throw std::runtime_error("generator: base program has no editable procedure");
}

Edit EditStream::next(std::string* source) {
  Edit edit;
  if (!last_.empty() && rng_.chance(repeat_share_)) {
    *source = last_;
    return edit;
  }
  edit.procedure = targets_[rng_.next() % targets_.size()];
  int64_t milli = rng_.range(101, 998);
  if (milli == 500) milli = 501;  // the base coefficient is not an edit
  edit.coefficient = "0." + std::to_string(milli);
  last_ = apply_edit(base_, edit);
  *source = last_;
  return edit;
}

std::vector<NamedProgram> spmd_programs(uint64_t seed) {
  Rng rng(seed ^ 0x73706d6472756e73ull);
  const int jacobi_mult = static_cast<int>(rng.range(3, 60)) * 2 + 1;
  const int adi_mult = static_cast<int>(rng.range(1, 9)) * 2 + 1;
  return {
      {"jacobi", jacobi(16384, 10, jacobi_mult)},
      {"adi", adi(96, 3, adi_mult)},
      {"stencil2d", fortd::bench::fig4(200, 200)},
      {"redistribution", fortd::bench::fig15(8192, 10)},
      {"dgefa", fortd::bench::dgefa(80)},
  };
}

std::vector<std::string> generator_self_test() {
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  const std::string a = mix_program(mix_shape(7, 300, 64));
  expect(a == mix_program(mix_shape(7, 300, 64)),
         "mix_program: same seed gave different sources");
  expect(a != mix_program(mix_shape(8, 300, 64)),
         "mix_program: different seeds gave the same source");
  expect(editable_procedures(a).size() + 4 == 300,
         "mix_program: procedure count is not the requested 300");

  auto stream_text = [](uint64_t seed, const std::string& base) {
    EditStream s(seed, base, 0.25);
    std::string text, src;
    for (int i = 0; i < 64; ++i) {
      const Edit e = s.next(&src);
      text += e.procedure + ":" + e.coefficient + ";";
    }
    return text;
  };
  expect(stream_text(7, a) == stream_text(7, a),
         "EditStream: same seed gave different edit streams");
  expect(stream_text(7, a) != stream_text(8, a),
         "EditStream: different seeds gave the same edit stream");

  EditStream s(7, a, 0.0);
  for (int i = 0; i < 16; ++i) {
    std::string src;
    const Edit e = s.next(&src);
    // Exactly one procedure differs: the edited one.
    int differing = 0;
    for (const std::string& name : editable_procedures(a)) {
      const std::string header = "\n      subroutine " + name + "(";
      const size_t pa = a.find(header), pe = src.find(header);
      const std::string body_a = a.substr(pa, a.find(kEnd, pa) - pa);
      const std::string body_e = src.substr(pe, src.find(kEnd, pe) - pe);
      if (body_a != body_e) {
        ++differing;
        expect(name == e.procedure, "EditStream: edited " + name +
                                        " instead of " + e.procedure);
      }
    }
    expect(differing == 1, "EditStream: an edit changed " +
                               std::to_string(differing) + " procedures");
  }
  expect(spmd_programs(7)[0].source == spmd_programs(7)[0].source,
         "spmd_programs: same seed gave different sources");
  return failures;
}

}  // namespace perfbench
