//! Property tests on the termination rule tables: the vote arithmetic
//! that makes Lemmas 1 and 2 go through, checked over random catalogs
//! and random disjoint partitions.

use proptest::prelude::*;
use qbc_core::rules::{phase2, Phase2Outcome, StateView, TerminationKind};
use qbc_core::{Decision, LocalState, ProtocolKind, SiteVotes, TxnId, TxnSpec, WriteSet};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, CatalogBuilder, ItemId};
use std::collections::BTreeMap;

/// A random catalog of `n_items` items over `n_sites` sites with valid
/// quorums, plus a spec writing every item.
fn arb_world() -> impl Strategy<Value = (Catalog, TxnSpec)> {
    (2u32..=3, 4u32..=8).prop_flat_map(|(n_items, n_sites)| {
        // copies: each item at `c` consecutive sites, unit votes.
        (3u32..=n_sites.min(5)).prop_flat_map(move |c| {
            // write quorum in (c/2, c], read = c - w + 1.
            (c / 2 + 1..=c).prop_map(move |w| {
                let r = c - w + 1;
                let mut b = CatalogBuilder::new();
                for i in 0..n_items {
                    b = b.item(ItemId(i));
                    for k in 0..c {
                        b = b.copy(SiteId((i + k) % n_sites), 1);
                    }
                    b = b.quorums(r, w);
                }
                let catalog = b.build().expect("valid random catalog");
                let ws = WriteSet::new((0..n_items).map(|i| (ItemId(i), 1)));
                let spec = TxnSpec::from_catalog(
                    TxnId(1),
                    SiteId(0),
                    ws,
                    ProtocolKind::QuorumCommit1,
                    &catalog,
                );
                (catalog, spec)
            })
        })
    })
}

/// Assigns each participant a non-terminal state: W, PC or PA.
fn arb_states(n: usize) -> impl Strategy<Value = Vec<LocalState>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(LocalState::Wait),
            1 => Just(LocalState::PreCommit),
            1 => Just(LocalState::PreAbort),
        ],
        n,
    )
}

fn commitish(o: Phase2Outcome) -> bool {
    matches!(
        o,
        Phase2Outcome::AttemptCommit | Phase2Outcome::Immediate(Decision::Commit)
    )
}

fn abortish(o: Phase2Outcome) -> bool {
    matches!(
        o,
        Phase2Outcome::AttemptAbort | Phase2Outcome::Immediate(Decision::Abort)
    )
}

proptest! {
    /// The heart of the safety proof: two *disjoint* partitions can
    /// never see a commit-capable view and an abort-capable view for
    /// the same transaction under TP1 or TP2 (with only non-terminal
    /// states, i.e. before any command has landed).
    #[test]
    fn disjoint_views_never_pull_apart(
        (catalog, spec) in arb_world(),
        states in arb_states(12),
        split_bits in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let participants: Vec<SiteId> = spec.participants.iter().copied().collect();
        let assign: BTreeMap<SiteId, LocalState> = participants
            .iter()
            .zip(states.iter())
            .map(|(&s, &st)| (s, st))
            .collect();
        let left = StateView::from_pairs(
            participants
                .iter()
                .enumerate()
                .filter(|(i, _)| split_bits.get(*i).copied().unwrap_or(false))
                .map(|(_, &s)| (s, assign[&s])),
        );
        let right = StateView::from_pairs(
            participants
                .iter()
                .enumerate()
                .filter(|(i, _)| !split_bits.get(*i).copied().unwrap_or(false))
                .map(|(_, &s)| (s, assign[&s])),
        );
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        for kind in [TerminationKind::Tp1, TerminationKind::Tp2] {
            let l = phase2(&kind, &catalog, &spec, &left);
            let r = phase2(&kind, &catalog, &spec, &right);
            prop_assert!(
                !(commitish(l) && abortish(r)),
                "{:?}: left {l:?} vs right {r:?}\nleft={left:?}\nright={right:?}",
                kind.name()
            );
            prop_assert!(
                !(abortish(l) && commitish(r)),
                "{:?}: left {l:?} vs right {r:?}",
                kind.name()
            );
        }
    }

    /// Skeen's site-vote rules have the same pairwise-exclusion
    /// property when Vc + Va > V.
    #[test]
    fn skeen_disjoint_views_never_pull_apart(
        (catalog, spec) in arb_world(),
        states in arb_states(12),
        split_bits in proptest::collection::vec(proptest::bool::ANY, 12),
        vc_extra in 0u32..3,
    ) {
        let participants: Vec<SiteId> = spec.participants.iter().copied().collect();
        let n = participants.len() as u32;
        // Vc + Va = n + 1 (+ extra margin on Vc).
        let vc = (n / 2 + 1 + vc_extra).min(n);
        let va = n + 1 - vc;
        let sv = SiteVotes::uniform(participants.iter().copied(), vc, va);
        prop_assume!(sv.validate().is_ok());
        let kind = TerminationKind::SkeenQuorum(sv);
        let assign: BTreeMap<SiteId, LocalState> = participants
            .iter()
            .zip(states.iter())
            .map(|(&s, &st)| (s, st))
            .collect();
        let left = StateView::from_pairs(
            participants
                .iter()
                .enumerate()
                .filter(|(i, _)| split_bits.get(*i).copied().unwrap_or(false))
                .map(|(_, &s)| (s, assign[&s])),
        );
        let right = StateView::from_pairs(
            participants
                .iter()
                .enumerate()
                .filter(|(i, _)| !split_bits.get(*i).copied().unwrap_or(false))
                .map(|(_, &s)| (s, assign[&s])),
        );
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let l = phase2(&kind, &catalog, &spec, &left);
        let r = phase2(&kind, &catalog, &spec, &right);
        prop_assert!(!(commitish(l) && abortish(r)), "left {l:?} vs right {r:?}");
        prop_assert!(!(abortish(l) && commitish(r)), "left {l:?} vs right {r:?}");
    }

    /// Monotonicity of the immediate-commit rule: growing the PC set of
    /// a view never turns an immediate commit into anything else
    /// (TP1/TP2 rule 1 counts PC votes positively).
    #[test]
    fn immediate_commit_is_monotone_in_pc(
        (catalog, spec) in arb_world(),
        pc_bits in proptest::collection::vec(proptest::bool::ANY, 12),
    ) {
        let participants: Vec<SiteId> = spec.participants.iter().copied().collect();
        let base = StateView::from_pairs(participants.iter().enumerate().map(|(i, &s)| {
            (
                s,
                if pc_bits.get(i).copied().unwrap_or(false) {
                    LocalState::PreCommit
                } else {
                    LocalState::Wait
                },
            )
        }));
        let all_pc = StateView::from_pairs(
            participants.iter().map(|&s| (s, LocalState::PreCommit)),
        );
        for kind in [TerminationKind::Tp1, TerminationKind::Tp2] {
            if phase2(&kind, &catalog, &spec, &base)
                == Phase2Outcome::Immediate(Decision::Commit)
            {
                prop_assert_eq!(
                    phase2(&kind, &catalog, &spec, &all_pc),
                    Phase2Outcome::Immediate(Decision::Commit)
                );
            }
        }
    }

    /// The rule table is total and never panics for arbitrary views,
    /// including terminal and initial states.
    #[test]
    fn phase2_is_total(
        (catalog, spec) in arb_world(),
        raw_states in proptest::collection::vec(0u8..6, 12),
    ) {
        use LocalState::*;
        let participants: Vec<SiteId> = spec.participants.iter().copied().collect();
        let view = StateView::from_pairs(participants.iter().enumerate().map(|(i, &s)| {
            let st = match raw_states.get(i).copied().unwrap_or(0) {
                0 => Initial,
                1 => Wait,
                2 => PreCommit,
                3 => PreAbort,
                4 => Committed,
                _ => Aborted,
            };
            (s, st)
        }));
        for kind in [
            TerminationKind::TwoPcCooperative,
            TerminationKind::ThreePcSiteFailure,
            TerminationKind::Tp1,
            TerminationKind::Tp2,
        ] {
            let _ = phase2(&kind, &catalog, &spec, &view);
        }
    }
}
