//! The distribution-method scheme (paper §4): the per-message decision.
//!
//! The paper's rule `|s|/|M_q| ≥ t` stands in for a cost comparison. For
//! an event in `S_q`, one multicast to `M_q` costs a per-(publisher,
//! group) constant `m_q` (the dense-mode tree, shared tree or ALM overlay
//! spanning the whole group), while unicasting the interested set `s`
//! costs about `|s| · ū_q`, with `ū_q` the group's average per-receiver
//! unicast cost. Multicast wins exactly when `|s| > m_q / ū_q`, i.e. above
//! the group's break-even ratio `t*_q = m_q / (ū_q · |M_q|)`; a global
//! `t` draws one line for every group (§6 leaves "where to draw the line"
//! open). The broker already knows both sides for every event — the
//! unicast cost of `s` and the memoized `m_q` — so
//! [`DistributionPolicy::cost_exact`] skips the estimate and compares
//! them directly.

use pubsub_netsim::NodeId;

use crate::BrokerError;

/// How one publication is delivered.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Decision {
    /// No interested subscribers: "the publication will be not sent".
    Drop,
    /// Unicast to exactly the interested subscribers — the event fell in
    /// the catch-all `S_0`, the rule in force preferred unicast, or
    /// faults severed the group.
    Unicast {
        /// Why unicast was chosen.
        reason: UnicastReason,
    },
    /// One dense-mode multicast to group `M_q` (uninterested members
    /// filter the message out locally).
    Multicast {
        /// The group index `q`.
        group: usize,
    },
    /// One multicast over only the *reachable* members of a
    /// fault-degraded group `M_q` — the middle rung of the degraded-mode
    /// fallback ladder (multicast → partial multicast → unicast). Only
    /// produced by brokers with an installed fault plan.
    PartialMulticast {
        /// The group index `q`.
        group: usize,
    },
}

/// Why a publication was unicast.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnicastReason {
    /// The event fell in the catch-all region `S_0`.
    CatchAll,
    /// The event fell in `S_q` but the rule in force preferred unicast:
    /// `|s|/|M_q| < t`, fewer than the count rule's minimum, or (under
    /// [`DistributionPolicy::cost_exact`]) a group send no cheaper than
    /// unicasting `s`.
    BelowThreshold,
    /// The event fell in `S_q` but faults severed the group's multicast
    /// tree (fewer than half the members reachable): the bottom rung of
    /// the degraded-mode fallback ladder.
    GroupSevered,
}

/// The threshold rule: unicast iff `|s| / |M_q| < t`.
///
/// `t = 0` reproduces the *static* scheme (always multicast when a group
/// region is hit); the paper finds `t ≈ 0.15` consistently best.
///
/// Beyond the paper, [`DistributionPolicy::cost_exact`] decides each
/// event by comparing the two costs the threshold approximates (see the
/// module docs).
///
/// # Example
///
/// ```
/// use pubsub_core::{Decision, DistributionPolicy};
/// use pubsub_netsim::NodeId;
///
/// # fn main() -> Result<(), pubsub_core::BrokerError> {
/// let policy = DistributionPolicy::new(0.15)?;
/// // 1 interested out of a 10-member group: 10% < 15% -> unicast.
/// let d = policy.decide(Some(2), &[NodeId(4)], 10);
/// assert!(matches!(d, Decision::Unicast { .. }));
/// // 3 of 10: 30% >= 15% -> multicast to the group.
/// let d = policy.decide(Some(2), &[NodeId(4), NodeId(5), NodeId(6)], 10);
/// assert_eq!(d, Decision::Multicast { group: 2 });
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct DistributionPolicy {
    threshold: f64,
    /// The paper's alternative rule ("the number (or the ratio of the
    /// number to the group size)"): when set, unicast iff
    /// `|s| < min_interested`, ignoring the group size.
    min_interested: Option<usize>,
    /// The exact rule: a multicast candidate stands only if the group
    /// send costs less than unicasting `s`.
    cost_exact: bool,
}

impl DistributionPolicy {
    /// Creates a policy with global threshold `t`.
    ///
    /// # Errors
    ///
    /// Returns [`BrokerError::InvalidConfig`] unless `0 ≤ t ≤ 1`.
    pub fn new(threshold: f64) -> Result<Self, BrokerError> {
        if !(0.0..=1.0).contains(&threshold) || threshold.is_nan() {
            return Err(BrokerError::InvalidConfig {
                parameter: "threshold",
                constraint: "0 <= t <= 1",
            });
        }
        Ok(DistributionPolicy {
            threshold,
            min_interested: None,
            cost_exact: false,
        })
    }

    /// Creates a policy using the *absolute count* rule (§1 mentions both
    /// flavors): multicast iff at least `min_interested` subscribers
    /// matched, regardless of group size. `0` is the static scheme.
    pub fn by_count(min_interested: usize) -> Self {
        DistributionPolicy {
            threshold: 0.0,
            min_interested: Some(min_interested),
            cost_exact: false,
        }
    }

    /// Creates the exact cost rule: an event in `S_q` with a non-empty
    /// `s` is multicast to `M_q` (over its reachable members when faults
    /// degrade the group) iff that group send `m_q` costs strictly less
    /// than unicasting `s`, so each event pays `min(unicast, m_q)`.
    /// Severed groups, a cut rendezvous point, `S_0` and an empty `s`
    /// decide as under any other rule.
    ///
    /// The counts alone cannot apply it: [`DistributionPolicy::decide`]
    /// and [`DistributionPolicy::decide_counts`] return the multicast
    /// candidate (as under `t = 0`), and the broker's fold confirms it
    /// against the costs it already holds.
    pub fn cost_exact() -> Self {
        DistributionPolicy {
            threshold: 0.0,
            min_interested: None,
            cost_exact: true,
        }
    }

    /// Whether the exact rule turns a multicast candidate whose group
    /// send costs `group_send` into a unicast costing `unicast`. Always
    /// `false` for the ratio and count rules.
    pub(crate) fn unicast_is_cheaper(&self, unicast: f64, group_send: f64) -> bool {
        self.cost_exact && group_send >= unicast
    }

    /// The absolute-count rule in force, if any.
    pub fn min_interested(&self) -> Option<usize> {
        self.min_interested
    }

    /// The threshold `t` (`0` under the count and exact rules).
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Decides how to deliver a publication.
    ///
    /// * `group` — the group region `S_q` containing the event (`None`
    ///   for `S_0`);
    /// * `interested` — the matched subscriber list `s`;
    /// * `group_size` — `|M_q|` (ignored when `group` is `None`).
    pub fn decide(
        &self,
        group: Option<usize>,
        interested: &[NodeId],
        group_size: usize,
    ) -> Decision {
        self.decide_counts(group, interested.len(), group_size)
    }

    /// [`DistributionPolicy::decide`] on bare counts — the rule only ever
    /// looks at `|s|` and `|M_q|`, so hot paths that already hold the
    /// deduplicated count can skip the slice.
    pub fn decide_counts(
        &self,
        group: Option<usize>,
        interested: usize,
        group_size: usize,
    ) -> Decision {
        if interested == 0 {
            return Decision::Drop;
        }
        match group {
            None => Decision::Unicast {
                reason: UnicastReason::CatchAll,
            },
            Some(q) => {
                let below = match self.min_interested {
                    Some(min) => interested < min,
                    None => {
                        let ratio = if group_size == 0 {
                            0.0
                        } else {
                            interested as f64 / group_size as f64
                        };
                        ratio < self.threshold
                    }
                };
                if below {
                    Decision::Unicast {
                        reason: UnicastReason::BelowThreshold,
                    }
                } else {
                    Decision::Multicast { group: q }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    #[test]
    fn validation() {
        assert!(DistributionPolicy::new(-0.1).is_err());
        assert!(DistributionPolicy::new(1.1).is_err());
        assert!(DistributionPolicy::new(f64::NAN).is_err());
        assert_eq!(DistributionPolicy::new(0.3).unwrap().threshold(), 0.3);
    }

    #[test]
    fn empty_interest_drops_even_inside_a_group() {
        let p = DistributionPolicy::new(0.15).unwrap();
        assert_eq!(p.decide(Some(1), &[], 10), Decision::Drop);
        assert_eq!(p.decide(None, &[], 10), Decision::Drop);
    }

    #[test]
    fn catch_all_always_unicasts() {
        let p = DistributionPolicy::new(0.0).unwrap();
        assert_eq!(
            p.decide(None, &nodes(5), 0),
            Decision::Unicast {
                reason: UnicastReason::CatchAll
            }
        );
    }

    #[test]
    fn threshold_zero_is_the_static_scheme() {
        let p = DistributionPolicy::new(0.0).unwrap();
        // Even 1 of 1000 multicasts: ratio 0.001 >= 0.
        assert_eq!(
            p.decide(Some(7), &nodes(1), 1000),
            Decision::Multicast { group: 7 }
        );
    }

    #[test]
    fn threshold_boundary_is_inclusive_for_multicast() {
        let p = DistributionPolicy::new(0.15).unwrap();
        // Exactly 15%: 3/20 -> multicast (rule is `< t` for unicast).
        assert_eq!(
            p.decide(Some(0), &nodes(3), 20),
            Decision::Multicast { group: 0 }
        );
        // Just below: 2/20 = 10% -> unicast.
        assert_eq!(
            p.decide(Some(0), &nodes(2), 20),
            Decision::Unicast {
                reason: UnicastReason::BelowThreshold
            }
        );
    }

    #[test]
    fn threshold_one_multicasts_only_full_groups() {
        let p = DistributionPolicy::new(1.0).unwrap();
        assert_eq!(
            p.decide(Some(0), &nodes(10), 10),
            Decision::Multicast { group: 0 }
        );
        assert!(matches!(
            p.decide(Some(0), &nodes(9), 10),
            Decision::Unicast { .. }
        ));
    }

    #[test]
    fn absolute_count_rule() {
        let p = DistributionPolicy::by_count(3);
        assert_eq!(p.min_interested(), Some(3));
        // Group size is irrelevant: 2 interested always unicasts...
        assert!(matches!(
            p.decide(Some(0), &nodes(2), 4),
            Decision::Unicast {
                reason: UnicastReason::BelowThreshold
            }
        ));
        assert!(matches!(
            p.decide(Some(0), &nodes(2), 10_000),
            Decision::Unicast { .. }
        ));
        // ...and 3 interested always multicasts.
        assert_eq!(
            p.decide(Some(5), &nodes(3), 4),
            Decision::Multicast { group: 5 }
        );
        assert_eq!(
            p.decide(Some(5), &nodes(3), 10_000),
            Decision::Multicast { group: 5 }
        );
        // Count 0 is the static scheme; drops still apply.
        let p0 = DistributionPolicy::by_count(0);
        assert_eq!(
            p0.decide(Some(1), &nodes(1), 9),
            Decision::Multicast { group: 1 }
        );
        assert_eq!(p0.decide(Some(1), &[], 9), Decision::Drop);
        // Fraction policies report no count rule.
        assert_eq!(DistributionPolicy::new(0.5).unwrap().min_interested(), None);
    }

    #[test]
    fn decide_counts_agrees_with_decide() {
        for p in [
            DistributionPolicy::new(0.15).unwrap(),
            DistributionPolicy::new(0.0).unwrap(),
            DistributionPolicy::by_count(3),
        ] {
            for group in [None, Some(0), Some(3)] {
                for interested in 0..6usize {
                    for group_size in [0usize, 1, 5, 20] {
                        assert_eq!(
                            p.decide_counts(group, interested, group_size),
                            p.decide(group, &nodes(interested), group_size),
                            "group={group:?} interested={interested} size={group_size}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cost_exact_counts_give_the_multicast_candidate() {
        let p = DistributionPolicy::cost_exact();
        assert_eq!(
            p.decide(Some(3), &nodes(1), 1000),
            Decision::Multicast { group: 3 }
        );
        assert_eq!(p.decide(Some(3), &[], 10), Decision::Drop);
        assert!(matches!(
            p.decide(None, &nodes(2), 0),
            Decision::Unicast { .. }
        ));
        assert!(p.unicast_is_cheaper(5.0, 5.0));
        assert!(!p.unicast_is_cheaper(5.0, 4.9));
        assert!(!DistributionPolicy::new(0.0)
            .unwrap()
            .unicast_is_cheaper(1.0, 9.0));
    }

    #[test]
    fn zero_sized_group_unicasts() {
        // Degenerate: matched subscribers but an empty group (can happen
        // if the group's cells lost all members). Ratio treated as 0.
        let p = DistributionPolicy::new(0.15).unwrap();
        assert!(matches!(
            p.decide(Some(0), &nodes(2), 0),
            Decision::Unicast { .. }
        ));
        // ...unless t = 0, where the static scheme multicasts regardless.
        let p0 = DistributionPolicy::new(0.0).unwrap();
        assert_eq!(
            p0.decide(Some(0), &nodes(2), 0),
            Decision::Multicast { group: 0 }
        );
    }
}
