// Exact cost-order pins for the SPMD evaluator.
//
// The simulator's logical clock is a floating-point sum of per-event
// charges (guards, loop iterations, flops, calls, message overheads), so
// its final value depends on the *order* in which those charges fire,
// not just on how many there are. The table below records, for the five
// example programs x three strategies x P in {1,2,4,8}:
//   * the simulator's sim_time_us, as an exact double, and
//   * every processor's flops, iterations, sends, recvs, sent_bytes and
//     recvd_bytes,
// as the map-based evaluator produced them. Any change to how the
// evaluator walks statements and expressions must reproduce them bit for
// bit; the threaded backend shares the evaluator, so its counters must
// match the same table.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "driver/compiler.hpp"
#include "example_programs.hpp"
#include "runtime/backend.hpp"

namespace fortd {
namespace {

// {flops, iterations, sends, recvs, sent_bytes, recvd_bytes}
using Counters = std::array<int64_t, 6>;

struct Pin {
  const char* example;
  Strategy strategy;
  int n_procs;
  double sim_time_us;
  std::vector<Counters> procs;
};

const Pin kPins[] = {
    {"jacobi", Strategy::Interprocedural, 1, 2677.1999999991226,
     {{21538, 10436, 0, 0, 0, 0}}},
    {"jacobi", Strategy::Interprocedural, 2, 6961.6000000020185,
     {{11514, 5228, 20, 20, 160, 160},
      {11274, 5228, 20, 20, 160, 160}}},
    {"jacobi", Strategy::Interprocedural, 4, 6309.2000000008447,
     {{6202, 2604, 20, 20, 160, 160},
      {6562, 2644, 40, 40, 320, 320},
      {6562, 2644, 40, 40, 320, 320},
      {5962, 2604, 20, 20, 160, 160}}},
    {"jacobi", Strategy::Interprocedural, 8, 5978.0000000004266,
     {{3546, 1292, 20, 20, 160, 160},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3306, 1292, 20, 20, 160, 160}}},
    {"jacobi", Strategy::Intraprocedural, 1, 2677.1999999991226,
     {{21538, 10436, 0, 0, 0, 0}}},
    {"jacobi", Strategy::Intraprocedural, 2, 6961.6000000020185,
     {{11514, 5228, 20, 20, 160, 160},
      {11274, 5228, 20, 20, 160, 160}}},
    {"jacobi", Strategy::Intraprocedural, 4, 6309.2000000008447,
     {{6202, 2604, 20, 20, 160, 160},
      {6562, 2644, 40, 40, 320, 320},
      {6562, 2644, 40, 40, 320, 320},
      {5962, 2604, 20, 20, 160, 160}}},
    {"jacobi", Strategy::Intraprocedural, 8, 5978.0000000004266,
     {{3546, 1292, 20, 20, 160, 160},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3906, 1332, 40, 40, 320, 320},
      {3306, 1292, 20, 20, 160, 160}}},
    {"jacobi", Strategy::RuntimeResolution, 1, 22803.819999961979,
     {{214641, 10436, 0, 0, 0, 0}}},
    {"jacobi", Strategy::RuntimeResolution, 2, 27312.619999922743,
     {{204237, 10436, 20, 20, 160, 160},
      {204237, 10436, 20, 20, 160, 160}}},
    {"jacobi", Strategy::RuntimeResolution, 4, 28892.079999914906,
     {{198925, 10436, 20, 20, 160, 160},
      {199145, 10436, 40, 40, 320, 320},
      {199145, 10436, 40, 40, 320, 320},
      {198925, 10436, 20, 20, 160, 160}}},
    {"jacobi", Strategy::RuntimeResolution, 8, 29385.199999918252,
     {{196269, 10436, 20, 20, 160, 160},
      {196489, 10436, 40, 40, 320, 320},
      {196489, 10436, 40, 40, 320, 320},
      {196489, 10436, 40, 40, 320, 320},
      {196489, 10436, 40, 40, 320, 320},
      {196489, 10436, 40, 40, 320, 320},
      {196489, 10436, 40, 40, 320, 320},
      {196269, 10436, 20, 20, 160, 160}}},
    {"adi", Strategy::Interprocedural, 1, 7617.1000000114755,
     {{65737, 20788, 0, 0, 0, 0}}},
    {"adi", Strategy::Interprocedural, 2, 36820.299999978728,
     {{38665, 11572, 0, 0, 0, 0},
      {38665, 11572, 0, 0, 0, 0}}},
    {"adi", Strategy::Interprocedural, 4, 27863.499999992873,
     {{25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0}}},
    {"adi", Strategy::Interprocedural, 8, 17855.500000000909,
     {{18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0}}},
    {"adi", Strategy::Intraprocedural, 1, 7617.1000000114755,
     {{65737, 20788, 0, 0, 0, 0}}},
    {"adi", Strategy::Intraprocedural, 2, 36820.299999978728,
     {{38665, 11572, 0, 0, 0, 0},
      {38665, 11572, 0, 0, 0, 0}}},
    {"adi", Strategy::Intraprocedural, 4, 27863.499999992873,
     {{25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0},
      {25129, 6964, 0, 0, 0, 0}}},
    {"adi", Strategy::Intraprocedural, 8, 17855.500000000909,
     {{18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0},
      {18361, 4660, 0, 0, 0, 0}}},
    {"adi", Strategy::RuntimeResolution, 1, 34466.859999797402,
     {{322945, 20788, 0, 0, 0, 0}}},
    {"adi", Strategy::RuntimeResolution, 2, 63554.859999654553,
     {{290113, 20788, 0, 0, 0, 0},
      {290113, 20788, 0, 0, 0, 0}}},
    {"adi", Strategy::RuntimeResolution, 4, 54540.45999971647,
     {{273697, 20788, 0, 0, 0, 0},
      {273697, 20788, 0, 0, 0, 0},
      {273697, 20788, 0, 0, 0, 0},
      {273697, 20788, 0, 0, 0, 0}}},
    {"adi", Strategy::RuntimeResolution, 8, 44503.659999763644,
     {{265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0},
      {265489, 20788, 0, 0, 0, 0}}},
    {"stencil2d", Strategy::Interprocedural, 1, 17856.240000010592,
     {{158912, 29300, 0, 0, 0, 0}}},
    {"stencil2d", Strategy::Interprocedural, 2, 15252.820000024954,
     {{120426, 20000, 0, 1, 0, 4000},
      {119419, 19500, 1, 0, 4000, 0}}},
    {"stencil2d", Strategy::Interprocedural, 4, 13020.320000021909,
     {{100676, 15100, 0, 1, 0, 4000},
      {100683, 15100, 1, 1, 4000, 4000},
      {100683, 15100, 1, 1, 4000, 4000},
      {99669, 14600, 1, 0, 4000, 0}}},
    {"stencil2d", Strategy::Interprocedural, 8, 11948.720000020425,
     {{91196, 12748, 0, 1, 0, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {91203, 12748, 1, 1, 4000, 4000},
      {87029, 11464, 1, 0, 4000, 0}}},
    {"stencil2d", Strategy::Intraprocedural, 1, 17921.100000009934,
     {{159501, 29300, 0, 0, 0, 0}}},
    {"stencil2d", Strategy::Intraprocedural, 2, 18255.780000005514,
     {{122401, 20050, 0, 100, 0, 4000},
      {120701, 19550, 100, 0, 4000, 0}}},
    {"stencil2d", Strategy::Intraprocedural, 4, 20587.290000008423,
     {{102651, 15175, 0, 100, 0, 4000},
      {103351, 15175, 100, 100, 4000, 4000},
      {103351, 15175, 100, 100, 4000, 4000},
      {100951, 14675, 100, 0, 4000, 0}}},
    {"stencil2d", Strategy::Intraprocedural, 8, 19709.730000013438,
     {{93171, 12835, 0, 100, 0, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {93871, 12835, 100, 100, 4000, 4000},
      {88311, 11555, 100, 0, 4000, 0}}},
    {"stencil2d", Strategy::RuntimeResolution, 1, 41505.099999677055,
     {{384001, 29300, 0, 0, 0, 0}}},
    {"stencil2d", Strategy::RuntimeResolution, 2, 59940.579999578978,
     {{347501, 29300, 0, 500, 0, 4000},
      {346001, 29300, 500, 0, 4000, 0}}},
    {"stencil2d", Strategy::RuntimeResolution, 4, 80030.100000729741,
     {{327751, 29300, 0, 500, 0, 4000},
      {329251, 29300, 500, 500, 4000, 4000},
      {329251, 29300, 500, 500, 4000, 4000},
      {326251, 29300, 500, 0, 4000, 0}}},
    {"stencil2d", Strategy::RuntimeResolution, 8, 79082.100000661754,
     {{318271, 29300, 0, 500, 0, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {319771, 29300, 500, 500, 4000, 4000},
      {313611, 29300, 500, 0, 4000, 0}}},
    {"redistribution", Strategy::Interprocedural, 1, 342.90000000002033,
     {{2219, 2210, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Interprocedural, 2, 847.89999999995314,
     {{2119, 2110, 0, 0, 0, 0},
      {2119, 2110, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Interprocedural, 4, 795.59999999996535,
     {{2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Interprocedural, 8, 744.7999999999837,
     {{2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2037, 2028, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Intraprocedural, 1, 342.90000000002033,
     {{2219, 2210, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Intraprocedural, 2, 21127.899999998932,
     {{2119, 2110, 0, 0, 0, 0},
      {2119, 2110, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Intraprocedural, 4, 19328.399999999187,
     {{2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0},
      {2069, 2060, 0, 0, 0, 0}}},
    {"redistribution", Strategy::Intraprocedural, 8, 17436.799999999606,
     {{2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2045, 2036, 0, 0, 0, 0},
      {2037, 2028, 0, 0, 0, 0}}},
    {"redistribution", Strategy::RuntimeResolution, 1, 825.10000000004356,
     {{6601, 2210, 0, 0, 0, 0}}},
    {"redistribution", Strategy::RuntimeResolution, 2, 21515.099999998642,
     {{5501, 2210, 0, 0, 0, 0},
      {5501, 2210, 0, 0, 0, 0}}},
    {"redistribution", Strategy::RuntimeResolution, 4, 19668.099999999598,
     {{4951, 2210, 0, 0, 0, 0},
      {4951, 2210, 0, 0, 0, 0},
      {4951, 2210, 0, 0, 0, 0},
      {4951, 2210, 0, 0, 0, 0}}},
    {"redistribution", Strategy::RuntimeResolution, 8, 17753.699999999946,
     {{4687, 2210, 0, 0, 0, 0},
      {4687, 2210, 0, 0, 0, 0},
      {4687, 2210, 0, 0, 0, 0},
      {4687, 2210, 0, 0, 0, 0},
      {4667, 2210, 0, 0, 0, 0},
      {4667, 2210, 0, 0, 0, 0},
      {4667, 2210, 0, 0, 0, 0},
      {4659, 2210, 0, 0, 0, 0}}},
    {"dgefa", Strategy::Interprocedural, 1, 634.50000000004559,
     {{4608, 1902, 0, 0, 0, 0}}},
    {"dgefa", Strategy::Interprocedural, 2, 3462.6999999999111,
     {{2388, 931, 16, 14, 576, 504},
      {2496, 986, 14, 16, 504, 576}}},
    {"dgefa", Strategy::Interprocedural, 4, 6418.300000000082,
     {{1272, 443, 24, 22, 960, 760},
      {1336, 475, 24, 22, 864, 792},
      {1392, 503, 24, 22, 768, 824},
      {1436, 526, 18, 24, 648, 864}}},
    {"dgefa", Strategy::Interprocedural, 8, 9437.1000000001804,
     {{706, 195, 28, 26, 1344, 888},
      {746, 215, 28, 26, 1232, 904},
      {782, 233, 28, 26, 1120, 920},
      {814, 249, 28, 26, 1008, 936},
      {842, 263, 28, 26, 896, 952},
      {866, 275, 28, 26, 784, 968},
      {886, 285, 28, 26, 672, 984},
      {898, 292, 14, 28, 504, 1008}}},
    {"dgefa", Strategy::Intraprocedural, 1, 696.9000000000492,
     {{5208, 1902, 0, 0, 0, 0}}},
    {"dgefa", Strategy::Intraprocedural, 2, 8175.9000000004562,
     {{2988, 995, 72, 63, 5504, 4536},
      {3096, 1042, 63, 72, 4536, 5504}}},
    {"dgefa", Strategy::Intraprocedural, 4, 15742.800000000399,
     {{1872, 539, 120, 95, 9792, 6776},
      {1936, 567, 108, 99, 8160, 7320},
      {1992, 591, 96, 103, 6720, 7800},
      {2036, 610, 81, 108, 5448, 8224}}},
    {"dgefa", Strategy::Intraprocedural, 8, 23384.599999999682,
     {{1306, 307, 168, 111, 15456, 7832},
      {1346, 325, 154, 113, 13104, 8168},
      {1382, 341, 140, 115, 10976, 8472},
      {1414, 355, 126, 117, 9072, 8744},
      {1442, 367, 112, 119, 7392, 8984},
      {1466, 377, 98, 121, 5936, 9192},
      {1486, 385, 84, 123, 4704, 9368},
      {1498, 390, 63, 126, 3640, 9520}}},
    {"dgefa", Strategy::RuntimeResolution, 1, 3690.839999997932,
     {{33808, 1902, 0, 0, 0, 0}}},
    {"dgefa", Strategy::RuntimeResolution, 2, 40282.139999976804,
     {{32444, 1902, 452, 350, 3616, 2800},
      {32564, 1902, 350, 452, 2800, 3616}}},
    {"dgefa", Strategy::RuntimeResolution, 4, 54932.519999966345,
     {{31296, 1902, 462, 292, 3696, 2336},
      {31344, 1902, 388, 338, 3104, 2704},
      {31388, 1902, 322, 380, 2576, 3040},
      {31428, 1902, 258, 420, 2064, 3360}}},
    {"dgefa", Strategy::RuntimeResolution, 8, 57335.599999968195,
     {{30602, 1902, 441, 201, 3528, 1608},
      {30626, 1902, 386, 226, 3088, 1808},
      {30648, 1902, 335, 249, 2680, 1992},
      {30668, 1902, 288, 270, 2304, 2160},
      {30686, 1902, 245, 289, 1960, 2312},
      {30702, 1902, 206, 306, 1648, 2448},
      {30716, 1902, 171, 321, 1368, 2568},
      {30728, 1902, 126, 336, 1008, 2688}}},
};

const char* find_source(const std::string& name) {
  for (const auto& ex : examples::kExamples)
    if (name == ex.name) return ex.source;
  return nullptr;
}

Counters counters_of(const ProcStats& st) {
  return {st.flops, st.iterations, st.sends, st.recvs, st.sent_bytes,
          st.recvd_bytes};
}

TEST(CostOrderPins, SimulatorClocksAndCountersAreExact) {
  ASSERT_EQ(sizeof kPins / sizeof kPins[0], 60u);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.example) + " P=" +
                 std::to_string(pin.n_procs) + " strategy " +
                 std::to_string(static_cast<int>(pin.strategy)));
    const char* source = find_source(pin.example);
    ASSERT_NE(source, nullptr);
    CodegenOptions options;
    options.n_procs = pin.n_procs;
    options.strategy = pin.strategy;
    Compiler compiler(options);
    CompileResult compiled = compiler.compile_source(source);

    const ExecResult sim =
        make_backend(BackendKind::Simulator)->execute(compiled.spmd);
    EXPECT_EQ(sim.sim_time_us, pin.sim_time_us);
    ASSERT_EQ(sim.per_proc.size(), pin.procs.size());
    for (size_t p = 0; p < pin.procs.size(); ++p)
      EXPECT_EQ(counters_of(sim.per_proc[p]), pin.procs[p]) << "sim P" << p;

    const ExecResult threads =
        make_backend(BackendKind::Threaded)->execute(compiled.spmd);
    ASSERT_EQ(threads.per_proc.size(), pin.procs.size());
    for (size_t p = 0; p < pin.procs.size(); ++p)
      EXPECT_EQ(counters_of(threads.per_proc[p]), pin.procs[p])
          << "threads P" << p;
  }
}

}  // namespace
}  // namespace fortd
