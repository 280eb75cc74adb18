#include "constructions/gen_toffoli.h"

#include <gtest/gtest.h>

#include "qdsim/exec/compile_service.h"
#include "qdsim/simulator.h"
#include "qdsim/verify/report.h"

namespace qd::ctor {
namespace {

/** Semantic check via basis-state simulation over the data wires; extra
 *  (dirty) ancilla are swept over all values, clean ancilla held at 0. */
void
expect_generalized_toffoli(const GenToffoli& built, bool dirty_ancilla)
{
    const WireDims& dims = built.circuit.dims();
    const int n = static_cast<int>(built.controls.size());
    for (Index idx = 0; idx < dims.size(); ++idx) {
        const std::vector<int> input = dims.unpack(idx);
        // Data wires must be binary-valued; ancilla dirty or clean.
        bool skip = false;
        for (const int c : built.controls) {
            if (input[static_cast<std::size_t>(c)] > 1) {
                skip = true;
            }
        }
        if (input[static_cast<std::size_t>(built.target)] > 1) {
            skip = true;
        }
        for (const int a : built.ancilla) {
            if (!dirty_ancilla && input[static_cast<std::size_t>(a)] != 0) {
                skip = true;
            }
        }
        if (skip) {
            continue;
        }
        StateVector psi(dims, input);
        apply_circuit(built.circuit, psi);
        std::vector<int> expected = input;
        bool all = true;
        for (int i = 0; i < n; ++i) {
            all = all && input[static_cast<std::size_t>(i)] == 1;
        }
        if (all) {
            expected[static_cast<std::size_t>(built.target)] ^= 1;
        }
        EXPECT_NEAR(std::abs(psi[dims.pack(expected)]), 1.0, 1e-6)
            << built.label << " input index " << idx;
    }
}

class AllMethodsSemantics : public ::testing::TestWithParam<Method> {};

TEST_P(AllMethodsSemantics, FourControls) {
    const GenToffoli built = build_gen_toffoli(GetParam(), 4);
    const bool dirty = GetParam() == Method::kQubitDirtyAncilla;
    expect_generalized_toffoli(built, dirty);
}

TEST_P(AllMethodsSemantics, OneControl) {
    const GenToffoli built = build_gen_toffoli(GetParam(), 1);
    expect_generalized_toffoli(built,
                               GetParam() == Method::kQubitDirtyAncilla);
}

TEST_P(AllMethodsSemantics, TwoControls) {
    const GenToffoli built = build_gen_toffoli(GetParam(), 2);
    expect_generalized_toffoli(built,
                               GetParam() == Method::kQubitDirtyAncilla);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, AllMethodsSemantics,
    ::testing::ValuesIn(all_methods()),
    [](const ::testing::TestParamInfo<Method>& info) {
        std::string label = method_label(info.param);
        for (char& ch : label) {
            if (!std::isalnum(static_cast<unsigned char>(ch))) {
                ch = '_';
            }
        }
        return label;
    });

TEST(GenToffoli, WideQubitRootsStayUnitaryAndAdmissible) {
    // The ancilla-free qubit construction recurses through X^{1/2^k}
    // roots, each the square root of the previous one. Rounding used to
    // grow level by level until admission rejected width 12 as
    // circuit.non-unitary (roots 5-6% off unitary at widths 13-14).
    for (const int width : {12, 14}) {
        const GenToffoli built =
            build_gen_toffoli(Method::kQubitNoAncilla, width - 1);
        for (const Operation& op : built.circuit.ops()) {
            ASSERT_TRUE(op.gate.matrix().is_unitary(1e-12))
                << "width " << width << " gate " << op.gate.name();
        }
        const verify::Report report =
            exec::CompileService::admission_report(built.circuit);
        EXPECT_FALSE(report.has_errors()) << report.to_string();

        // Basis states map as the ideal multi-controlled X: the target
        // flips exactly when every control is 1.
        const WireDims& dims = built.circuit.dims();
        std::vector<std::vector<int>> inputs;
        std::vector<int> ones(static_cast<std::size_t>(width), 1);
        for (const int target : {0, 1}) {
            ones[static_cast<std::size_t>(built.target)] = target;
            inputs.push_back(ones);
            std::vector<int> one_off = ones;
            one_off[static_cast<std::size_t>(built.controls.back())] = 0;
            inputs.push_back(one_off);
            std::vector<int> alternating = ones;
            for (std::size_t i = 0; i < built.controls.size(); i += 2) {
                alternating[static_cast<std::size_t>(built.controls[i])] = 0;
            }
            inputs.push_back(alternating);
        }
        for (const std::vector<int>& input : inputs) {
            StateVector psi(dims, input);
            apply_circuit(built.circuit, psi);
            std::vector<int> expected = input;
            bool all = true;
            for (const int c : built.controls) {
                all = all && input[static_cast<std::size_t>(c)] == 1;
            }
            if (all) {
                expected[static_cast<std::size_t>(built.target)] ^= 1;
            }
            EXPECT_NEAR(std::abs(psi[dims.pack(expected)]), 1.0, 1e-9)
                << "width " << width << " input index " << dims.pack(input);
        }
    }
}

TEST(GenToffoli, Labels) {
    EXPECT_EQ(method_label(Method::kQutrit), "QUTRIT");
    EXPECT_EQ(method_label(Method::kQubitNoAncilla), "QUBIT");
    EXPECT_EQ(method_label(Method::kQubitDirtyAncilla), "QUBIT+ANCILLA");
}

TEST(GenToffoli, Table1AncillaCounts) {
    EXPECT_TRUE(build_gen_toffoli(Method::kQutrit, 8).ancilla.empty());
    EXPECT_TRUE(build_gen_toffoli(Method::kQubitNoAncilla, 8).ancilla.empty());
    EXPECT_EQ(build_gen_toffoli(Method::kQubitDirtyAncilla, 8).ancilla.size(),
              1u);
    EXPECT_EQ(build_gen_toffoli(Method::kHe, 8).ancilla.size(), 7u);
    EXPECT_TRUE(build_gen_toffoli(Method::kWang, 8).ancilla.empty());
    EXPECT_TRUE(build_gen_toffoli(Method::kLanyonRalph, 8).ancilla.empty());
}

TEST(GenToffoli, Table1DepthOrdering) {
    // At N=64 the paper's ordering must hold:
    // QUTRIT (log) << HE (log, but more wires) << linear << quadratic.
    const int n = 64;
    const int d_qutrit =
        build_gen_toffoli(Method::kQutrit, n).circuit.depth();
    const int d_qubit =
        build_gen_toffoli(Method::kQubitNoAncilla, n).circuit.depth();
    const int d_borrow =
        build_gen_toffoli(Method::kQubitDirtyAncilla, n).circuit.depth();
    const int d_wang = build_gen_toffoli(Method::kWang, n).circuit.depth();
    EXPECT_LT(d_qutrit, d_wang);
    EXPECT_LT(d_qutrit, d_borrow);
    EXPECT_LT(d_borrow, d_qubit);
}

TEST(GenToffoli, QutritWidthIsFrontier) {
    // QUTRIT runs at the ancilla-free frontier: width == N+1.
    const GenToffoli b = build_gen_toffoli(Method::kQutrit, 13);
    EXPECT_EQ(b.circuit.num_wires(), 14);
}

TEST(GenToffoli, NegativeControlsThrows) {
    EXPECT_THROW(build_gen_toffoli(Method::kQutrit, -1),
                 std::invalid_argument);
}


TEST(GenToffoli, UndecomposedOptionKeepsSemantics) {
    // Native-granularity circuits (three-qutrit tree gates / Toffolis)
    // implement the same logical gate.
    for (const auto m : {Method::kQutrit, Method::kQubitDirtyAncilla,
                         Method::kHe}) {
        const GenToffoli built =
            build_gen_toffoli(m, 4, GenToffoliOptions{false});
        expect_generalized_toffoli(built,
                                   m == Method::kQubitDirtyAncilla);
    }
}

TEST(GenToffoli, UndecomposedQutritTreeIsClassical) {
    // The three-qutrit granularity supports the paper's fast classical
    // verification; the decomposed form does not (cube-root gates).
    const GenToffoli coarse =
        build_gen_toffoli(Method::kQutrit, 6, GenToffoliOptions{false});
    const GenToffoli fine =
        build_gen_toffoli(Method::kQutrit, 6, GenToffoliOptions{true});
    int coarse_classical = 0;
    for (const Operation& op : coarse.circuit.ops()) {
        coarse_classical += op.gate.is_permutation() ? 1 : 0;
    }
    EXPECT_EQ(coarse_classical,
              static_cast<int>(coarse.circuit.num_ops()));
    bool fine_all_classical = true;
    for (const Operation& op : fine.circuit.ops()) {
        fine_all_classical &= op.gate.is_permutation();
    }
    EXPECT_FALSE(fine_all_classical);
}

TEST(GenToffoli, FrontierWidthSweep) {
    // Figure 1's frontier: the qutrit construction always fits on N+1
    // machine wires, for every N.
    for (const int n : {1, 2, 5, 16, 47, 100}) {
        const GenToffoli b = build_gen_toffoli(Method::kQutrit, n);
        EXPECT_EQ(b.circuit.num_wires(), n + 1) << n;
        EXPECT_TRUE(b.ancilla.empty()) << n;
    }
}

TEST(GenToffoli, TwoQuditGateCountFormula) {
    // Compute + uncompute tree at 5.9N measured; pin the exact count for
    // the paper's simulated width to guard against regressions.
    const GenToffoli b = build_gen_toffoli(Method::kQutrit, 13);
    EXPECT_EQ(b.circuit.two_qudit_count(), 75u);
    EXPECT_EQ(b.circuit.depth(), 42);
}

}  // namespace
}  // namespace qd::ctor
