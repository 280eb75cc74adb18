/**
 * Regenerates paper Section 6.2 (simulator efficiency): state-vector (not
 * full-matrix) gate application, O(d^N) random-state generation, and
 * simulation cost vs width. Uses google-benchmark for the timed sweeps.
 */
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "constructions/gen_toffoli.h"
#include "qdsim/classical.h"
#include "qdsim/gate_library.h"
#include "qdsim/random_state.h"
#include "qdsim/simulator.h"

namespace {

using namespace qd;

void
BM_ApplyTwoQutritGate(benchmark::State& state)
{
    const int width = static_cast<int>(state.range(0));
    const WireDims dims = WireDims::uniform(width, 3);
    Rng rng(1);
    StateVector psi = haar_random_state(dims, rng);
    const Gate g = gates::Xplus1().controlled(3, 2);
    const std::vector<int> wires = {0, width - 1};
    for (auto _ : state) {
        psi.apply(g.matrix(), wires);
        benchmark::DoNotOptimize(psi.amplitudes().data());
    }
    state.SetComplexityN(static_cast<std::int64_t>(dims.size()));
}
BENCHMARK(BM_ApplyTwoQutritGate)->DenseRange(4, 12, 2)->Complexity();

void
BM_RandomStateGeneration(benchmark::State& state)
{
    // Paper: direct O(d^N) first-column sampling instead of Haar QR of the
    // full d^N x d^N unitary.
    const int width = static_cast<int>(state.range(0));
    const WireDims dims = WireDims::uniform(width, 3);
    Rng rng(2);
    for (auto _ : state) {
        StateVector psi = haar_random_state(dims, rng);
        benchmark::DoNotOptimize(psi.amplitudes().data());
    }
    state.SetComplexityN(static_cast<std::int64_t>(dims.size()));
}
BENCHMARK(BM_RandomStateGeneration)->DenseRange(4, 12, 2)->Complexity();

void
BM_QutritToffoliIdealSimulation(benchmark::State& state)
{
    const int n_controls = static_cast<int>(state.range(0));
    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    Rng rng(3);
    const StateVector init =
        haar_random_qubit_subspace_state(built.circuit.dims(), rng);
    for (auto _ : state) {
        StateVector out = simulate(built.circuit, init);
        benchmark::DoNotOptimize(out.amplitudes().data());
    }
}
BENCHMARK(BM_QutritToffoliIdealSimulation)->DenseRange(3, 9, 2);

void
BM_QutritToffoliCompiledSimulation(benchmark::State& state)
{
    // Compile-once / run-many: the execution engine's plans and kernels
    // are built outside the timed loop, as the trajectory engine uses
    // them. Compare against BM_QutritToffoliIdealSimulation, which pays
    // compilation per run.
    const int n_controls = static_cast<int>(state.range(0));
    const auto built =
        ctor::build_gen_toffoli(ctor::Method::kQutrit, n_controls);
    const exec::CompiledCircuit compiled(built.circuit);
    Rng rng(3);
    const StateVector init =
        haar_random_qubit_subspace_state(built.circuit.dims(), rng);
    exec::BatchedScratch scratch;
    for (auto _ : state) {
        StateVector out = init;
        compiled.run(out, scratch);
        benchmark::DoNotOptimize(out.amplitudes().data());
    }
}
BENCHMARK(BM_QutritToffoliCompiledSimulation)->DenseRange(3, 9, 2);

void
BM_ClassicalVerificationPerInput(benchmark::State& state)
{
    // Paper: classical inputs verified in time proportional to the width,
    // not d^N.
    const int n_controls = static_cast<int>(state.range(0));
    const auto built = ctor::build_gen_toffoli(
        ctor::Method::kQutrit, n_controls,
        ctor::GenToffoliOptions{/*decompose=*/false});
    std::vector<int> input(
        static_cast<std::size_t>(built.circuit.num_wires()), 1);
    input.back() = 0;
    for (auto _ : state) {
        auto out = classical_run(built.circuit, input);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_ClassicalVerificationPerInput)->RangeMultiplier(2)
    ->Range(8, 128);

}  // namespace

/**
 * Like BENCHMARK_MAIN(), but defaults --benchmark_out to
 * BENCH_sim_scaling.json (JSON format) so every run leaves a
 * machine-readable record and the perf trajectory accumulates. Pass your
 * own --benchmark_out=... to override.
 */
int
main(int argc, char** argv)
{
    std::vector<char*> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]).rfind("--benchmark_out", 0) == 0) {
            has_out = true;
        }
    }
    char out_flag[] = "--benchmark_out=BENCH_sim_scaling.json";
    char fmt_flag[] = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag);
        args.push_back(fmt_flag);
    }
    int n = static_cast<int>(args.size());
    benchmark::Initialize(&n, args.data());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
