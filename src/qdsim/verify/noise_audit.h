/**
 * @file noise_audit.h
 * Static audit of noise channels and NoiseModel parameters: CPTP
 * completeness of Kraus sets, probability sanity of mixed-unitary
 * channels, and — for a whole model against a register — the channels
 * the engines would actually build from it (depolarizing per dim,
 * amplitude damping per moment duration).
 *
 * Lives apart from verify.h so the qdsim-level API stays free of the
 * noise layer. The CompileService's admission gate merges analyze_noise
 * into every noisy admission (QD_VERIFY=strict for the in-process noisy
 * entry points, always for untrusted IR).
 */
#ifndef QDSIM_VERIFY_NOISE_AUDIT_H
#define QDSIM_VERIFY_NOISE_AUDIT_H

#include <string_view>

#include "noise/kraus.h"
#include "noise/noise_model.h"
#include "qdsim/verify/verify.h"

namespace qd::verify {

/**
 * Audits one Kraus channel: non-empty, operators square and uniformly
 * sized (noise.shape), and trace-preserving — sum K^dagger K == I within
 * tol (noise.cptp). `label` names the channel in messages.
 */
void audit_kraus(const noise::KrausChannel& channel, Report& report,
                 std::string_view label = "", Real tol = kLooseTol);

/**
 * Audits a mixed-unitary channel: probs/unitaries aligned (noise.shape),
 * probabilities in [0,1] with sum <= 1 (noise.probability), and every
 * operator unitary (noise.unitary).
 */
void audit_mixed_unitary(const noise::MixedUnitaryChannel& channel,
                         Report& report, std::string_view label = "",
                         Real tol = kLooseTol);

/**
 * Audits a NoiseModel against a register: parameter ranges (noise
 * probabilities, durations, decay rates — noise.probability; over-unity
 * per-gate totals are a warning since the sampler saturates), and the
 * concrete channels the engines derive from it — depolarizing1/2 for
 * every wire-dimension (pair) present and amplitude damping for each
 * moment duration — through audit_kraus/audit_mixed_unitary.
 */
[[nodiscard]] Report analyze_noise(const noise::NoiseModel& model,
                                   const WireDims& dims,
                                   Real tol = kLooseTol);

}  // namespace qd::verify

#endif  // QDSIM_VERIFY_NOISE_AUDIT_H
