// The pluggable privacy layer: one PrivacyMechanism decides how a node
// shapes its per-round contribution and which ring ordering each round
// rides on.  protocol::core::Participant owns a mechanism instance and
// consults it for the round budget, the LocalAlgorithm and the per-round
// ring order; the three execution engines stay mechanism-agnostic.
//
// Three implementations ship (docs/PRIVACY.md has the threat models):
//
//   * Schedule  - the paper's Eq.-2 probabilistic randomization
//     (Algorithm 1/2 behind RandomizedMax/TopKAlgorithm).  One fixed ring
//     ordering (or §4.3 per-round remap); privacy decays against
//     colluding ring neighbours.
//   * Segmented - k-secure-sum style (Sheikh et al.): the local top-k is
//     split into S segments, one contributed per round, and every round
//     r >= 2 rides a distinct ring ordering derived deterministically
//     from (queryId, r) - so a coalition must flank a victim in EVERY
//     round to observe its full contribution.  Exact after S rounds.
//   * Ldp       - bounded local-DP perturbation: values are noised once
//     (truncated discrete Laplace, parameterized by epsilon) and merged
//     in a single deterministic round.  Privacy holds even against n-1
//     colluders, at the price of a noisy answer.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "protocol/local_algorithm.hpp"
#include "protocol/params.hpp"

namespace privtopk::protocol {

/// Deterministic seed for the derived ring ordering of round `round`
/// (Segmented mechanism).  Depends only on public inputs so every
/// participant derives the identical ordering without coordination, in
/// the same spirit as the §4.2 group-seed derivations (protocol/group.hpp).
[[nodiscard]] constexpr std::uint64_t segmentRingSeed(std::uint64_t queryId,
                                                      Round round) {
  return splitmix64(splitmix64(queryId ^ 0x5e6d3a91c47b20f5ULL) ^
                    splitmix64(round));
}

/// Noise bound for the Ldp mechanism: the truncated discrete-Laplace draw
/// is clamped to [-B, B] with B ~ ceil(6/epsilon), which keeps more than
/// 1 - e^-6 of the untruncated mass.
[[nodiscard]] Value ldpNoiseBound(double epsilon);

/// One privacy mechanism: round budget + local algorithm + per-round ring
/// ordering.  Stateless (all per-query state lives in the LocalAlgorithm
/// it builds), so instances may be shared or rebuilt freely.
class PrivacyMechanism {
 public:
  virtual ~PrivacyMechanism() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Rounds of token passing this mechanism needs under `params`.
  [[nodiscard]] virtual Round roundBudget(ProtocolKind kind,
                                          const ProtocolParams& params)
      const = 0;

  /// Builds the per-node LocalAlgorithm.  Mechanisms that randomize fork
  /// `rng` with core::kAlgorithmRngTag (exactly one fork, so engines that
  /// pin per-node seeds agree bit for bit); deterministic mechanisms draw
  /// nothing.
  [[nodiscard]] virtual std::unique_ptr<LocalAlgorithm> makeAlgorithm(
      ProtocolKind kind, const ProtocolParams& params, Rng& rng) const = 0;

  /// The ring ordering round `round` travels on, derived from the agreed
  /// `base` order.  The default (identity) keeps one ordering for the
  /// whole query.  Implementations must keep base.front() in front: the
  /// controller's identity is part of the out-of-band agreement.
  [[nodiscard]] virtual std::vector<NodeId> orderForRound(
      const std::vector<NodeId>& base, Round round,
      std::uint64_t queryId) const;

  /// How far above the true top-k an output value may legitimately land
  /// (0 for exact mechanisms; the noise bound for Ldp).  Consumed by the
  /// soundness property checks.
  [[nodiscard]] virtual Value soundnessSlack(const ProtocolParams& params)
      const;
};

/// Builds the mechanism `spec` names; throws ConfigError on an invalid
/// spec.  Cheap enough to call per query.
[[nodiscard]] std::unique_ptr<PrivacyMechanism> makeMechanism(
    const MechanismSpec& spec);

/// Throws ConfigError when `params.mechanism` cannot run on `kind` (the
/// segmented and LDP mechanisms replace the probabilistic randomizer, so
/// they require ProtocolKind::Probabilistic).
void validateMechanismFor(ProtocolKind kind, const ProtocolParams& params);

// ---------------------------------------------------------------------------
// The mechanism-owned local algorithms (exposed for unit tests; engines
// only ever see them through makeAlgorithm).
// ---------------------------------------------------------------------------

/// Segmented circulation: reset() deals the local top-k round-robin into
/// `segments` parts; step(incoming, r) merges part r-1.  Merge-only, so
/// monotone, sound, and exact once every round has run.
class SegmentedMergeAlgorithm final : public LocalAlgorithm {
 public:
  SegmentedMergeAlgorithm(std::size_t k, std::uint32_t segments);

  void reset(TopKVector localTopK) override;
  [[nodiscard]] TopKVector step(const TopKVector& incoming, Round r) override;
  [[nodiscard]] std::string name() const override { return "segmented-merge"; }

  /// The part contributed in round `r` (1-based); exposed for tests.
  [[nodiscard]] const TopKVector& segment(Round r) const;

 private:
  std::size_t k_;
  std::uint32_t segments_;
  std::vector<TopKVector> parts_;
};

/// Local-DP perturbation: reset() noises every local value once with a
/// truncated discrete-Laplace draw (clamped to the domain), then every
/// step merges the perturbed vector like the naive baseline.
class LdpAlgorithm final : public LocalAlgorithm {
 public:
  LdpAlgorithm(std::size_t k, double epsilon, Rng rng, Domain domain);

  void reset(TopKVector localTopK) override;
  [[nodiscard]] TopKVector step(const TopKVector& incoming, Round r) override;
  [[nodiscard]] std::string name() const override { return "ldp"; }

  /// The perturbed vector actually contributed; exposed for tests.
  [[nodiscard]] const TopKVector& perturbed() const { return perturbed_; }

 private:
  std::size_t k_;
  double epsilon_;
  Rng rng_;
  Domain domain_;
  Value bound_;
  TopKVector perturbed_;
};

}  // namespace privtopk::protocol
