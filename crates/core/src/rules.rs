//! Quorum rules of the termination protocols (Figs. 5 and 8).
//!
//! Phase 2 of a termination attempt evaluates the collected local states
//! against the rules of the configured protocol, in the paper's order:
//!
//! 1. immediate commit,
//! 2. immediate abort,
//! 3. commit quorum possible → PREPARE-TO-COMMIT round,
//! 4. abort quorum possible → PREPARE-TO-ABORT round,
//! 5. block.
//!
//! TP1 and TP2 count **per-item copy votes** over `W(TR)` against the
//! replica-control quorums `w(x)` / `r(x)` — the paper's central idea of
//! aligning termination with the partition-processing strategy. The
//! baselines count differently: Skeen `[16]` counts *site* votes against
//! `Vc`/`Va`; the 3PC termination protocol only looks for committable
//! states (safe for site failures, unsafe under partitions — Example 2);
//! 2PC cooperative termination can only adopt a known decision.

use crate::states::LocalState;
use crate::types::{Decision, SiteVotes, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::Catalog;
use std::collections::{BTreeMap, BTreeSet};

/// Which termination rule set a transaction uses.
#[derive(Clone, Debug, PartialEq)]
pub enum TerminationKind {
    /// 2PC cooperative termination: adopt any known decision; abort when
    /// someone has not voted; otherwise block.
    TwoPcCooperative,
    /// The 3PC termination protocol (site failures only): commit iff a
    /// committable state exists, else abort. Never blocks — and is
    /// therefore inconsistent under partitioning (Example 2).
    ThreePcSiteFailure,
    /// Skeen's quorum protocol `[16]`: site-vote quorums `Vc`/`Va`.
    SkeenQuorum(SiteVotes),
    /// The paper's Termination Protocol 1 (Fig. 5).
    Tp1,
    /// The paper's Termination Protocol 2 (Fig. 8).
    Tp2,
}

impl TerminationKind {
    /// Display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            TerminationKind::TwoPcCooperative => "2PC-coop",
            TerminationKind::ThreePcSiteFailure => "3PC-TP",
            TerminationKind::SkeenQuorum(_) => "Skeen-TP",
            TerminationKind::Tp1 => "TP1",
            TerminationKind::Tp2 => "TP2",
        }
    }
}

/// The outcome of evaluating phase-2 rules over collected states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase2Outcome {
    /// Rule 1/2: decide now, command everyone.
    Immediate(Decision),
    /// Rule 3: try to form a commit quorum (PREPARE-TO-COMMIT round).
    AttemptCommit,
    /// Rule 4: try to form an abort quorum (PREPARE-TO-ABORT round).
    AttemptAbort,
    /// Rule 5: block.
    Block,
}

/// A view of the local states collected from reachable participants
/// (including the termination coordinator's own state).
#[derive(Clone, Debug, Default)]
pub struct StateView {
    states: BTreeMap<SiteId, LocalState>,
}

impl StateView {
    /// Empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a view from `(site, state)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (SiteId, LocalState)>) -> Self {
        StateView {
            states: pairs.into_iter().collect(),
        }
    }

    /// Records a site's reported state (later reports win).
    pub fn record(&mut self, site: SiteId, state: LocalState) {
        self.states.insert(site, state);
    }

    /// Number of collected reports.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when no reports were collected.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The collected state of a site.
    pub fn state_of(&self, site: SiteId) -> Option<LocalState> {
        self.states.get(&site).copied()
    }

    /// Iterate over reports.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, LocalState)> + '_ {
        self.states.iter().map(|(&s, &st)| (s, st))
    }

    /// True when any reported state satisfies the predicate.
    pub fn any(&self, f: impl Fn(LocalState) -> bool) -> bool {
        self.states.values().any(|&s| f(s))
    }

    /// Sites whose reported state satisfies the predicate.
    pub fn sites_where(&self, f: impl Fn(LocalState) -> bool) -> BTreeSet<SiteId> {
        self.states
            .iter()
            .filter(|(_, &s)| f(s))
            .map(|(&site, _)| site)
            .collect()
    }
}

/// Sum of copy votes of `item` held by `sites`.
fn item_votes(catalog: &Catalog, item: qbc_votes::ItemId, sites: &BTreeSet<SiteId>) -> u32 {
    catalog
        .item(item)
        .map(|spec| spec.votes_among(sites))
        .unwrap_or(0)
}

/// `∀x ∈ W(TR): votes(x, sites) ≥ w(x)`
fn write_quorum_every_item(catalog: &Catalog, spec: &TxnSpec, sites: &BTreeSet<SiteId>) -> bool {
    spec.writeset.items().all(|x| {
        catalog
            .item(x)
            .map(|i| item_votes(catalog, x, sites) >= i.write_quorum)
            .unwrap_or(false)
    })
}

/// `∃x ∈ W(TR): votes(x, sites) ≥ r(x)`
fn read_quorum_some_item(catalog: &Catalog, spec: &TxnSpec, sites: &BTreeSet<SiteId>) -> bool {
    spec.writeset.items().any(|x| {
        catalog
            .item(x)
            .map(|i| item_votes(catalog, x, sites) >= i.read_quorum)
            .unwrap_or(false)
    })
}

/// `∃x ∈ W(TR): votes(x, sites) ≥ w(x)` is never needed;
/// `∀x ∈ W(TR): votes(x, sites) ≥ r(x)` likewise — the four rule sets
/// only combine the two predicates above with PC/PA filters.
///
/// Evaluates phase 2 of the termination protocol (the decision table of
/// Fig. 5 / Fig. 8, or the baseline equivalents).
pub fn phase2(
    kind: &TerminationKind,
    catalog: &Catalog,
    spec: &TxnSpec,
    view: &StateView,
) -> Phase2Outcome {
    use LocalState::*;
    use Phase2Outcome::*;
    let has = |s: LocalState| view.any(|x| x == s);
    match kind {
        TerminationKind::TwoPcCooperative => {
            if has(Committed) {
                Immediate(Decision::Commit)
            } else if has(Aborted) || has(Initial) {
                // A site that has not voted can still veto: abort is safe.
                Immediate(Decision::Abort)
            } else {
                // All reachable sites voted yes and none knows the
                // decision: 2PC's classic blocking window.
                Block
            }
        }
        TerminationKind::ThreePcSiteFailure => {
            // Example 2: "if there exists a site in PC state or commit
            // state, then the transaction should be committed; else the
            // transaction should be aborted."
            if has(Committed) || has(PreCommit) {
                Immediate(Decision::Commit)
            } else {
                Immediate(Decision::Abort)
            }
        }
        TerminationKind::SkeenQuorum(site_votes) => {
            if has(Committed) {
                return Immediate(Decision::Commit);
            }
            if has(Aborted) || has(Initial) {
                return Immediate(Decision::Abort);
            }
            let non_pa = view.sites_where(|s| s != PreAbort);
            let non_pc = view.sites_where(|s| s != PreCommit);
            if has(PreCommit) && site_votes.votes_among(&non_pa) >= site_votes.commit_quorum {
                AttemptCommit
            } else if site_votes.votes_among(&non_pc) >= site_votes.abort_quorum {
                AttemptAbort
            } else {
                Block
            }
        }
        TerminationKind::Tp1 => {
            let pc = view.sites_where(|s| s == PreCommit);
            let pa = view.sites_where(|s| s == PreAbort);
            let non_pa = view.sites_where(|s| s != PreAbort);
            let non_pc = view.sites_where(|s| s != PreCommit);
            // Rule 1: ≥1 C, or w(x) votes for EVERY x from PC sites.
            if has(Committed) || write_quorum_every_item(catalog, spec, &pc) {
                Immediate(Decision::Commit)
            }
            // Rule 2: ≥1 A or initial, or r(x) votes for SOME x from PA.
            else if has(Aborted) || has(Initial) || read_quorum_some_item(catalog, spec, &pa) {
                Immediate(Decision::Abort)
            }
            // Rule 3: ∃PC and w(x) votes ∀x from non-PA sites.
            else if has(PreCommit) && write_quorum_every_item(catalog, spec, &non_pa) {
                AttemptCommit
            }
            // Rule 4: r(x) votes for some x from non-PC sites.
            else if read_quorum_some_item(catalog, spec, &non_pc) {
                AttemptAbort
            } else {
                Block
            }
        }
        TerminationKind::Tp2 => {
            let pc = view.sites_where(|s| s == PreCommit);
            let pa = view.sites_where(|s| s == PreAbort);
            let non_pa = view.sites_where(|s| s != PreAbort);
            let non_pc = view.sites_where(|s| s != PreCommit);
            // Rule 1: ≥1 C, or r(x) votes for SOME x from PC sites.
            if has(Committed) || read_quorum_some_item(catalog, spec, &pc) {
                Immediate(Decision::Commit)
            }
            // Rule 2: ≥1 A/initial, or w(x) votes for EVERY x from PA.
            else if has(Aborted) || has(Initial) || write_quorum_every_item(catalog, spec, &pa) {
                Immediate(Decision::Abort)
            }
            // Rule 3: ∃PC and r(x) votes for some x from non-PA sites.
            else if has(PreCommit) && read_quorum_some_item(catalog, spec, &non_pa) {
                AttemptCommit
            }
            // Rule 4: w(x) votes for every x from non-PC sites.
            else if write_quorum_every_item(catalog, spec, &non_pc) {
                AttemptAbort
            } else {
                Block
            }
        }
    }
}

/// Phase-3 success test: do the phase-1 repliers already in the prepared
/// state plus the prepare-round ackers constitute the required quorum?
///
/// `sites` = base (PC repliers for commit / PA repliers for abort)
/// ∪ ackers. `attempt` is the direction being driven.
pub fn phase3_satisfied(
    kind: &TerminationKind,
    catalog: &Catalog,
    spec: &TxnSpec,
    attempt: Decision,
    sites: &BTreeSet<SiteId>,
) -> bool {
    match kind {
        // These kinds never run prepare rounds.
        TerminationKind::TwoPcCooperative | TerminationKind::ThreePcSiteFailure => false,
        TerminationKind::SkeenQuorum(site_votes) => match attempt {
            Decision::Commit => site_votes.votes_among(sites) >= site_votes.commit_quorum,
            Decision::Abort => site_votes.votes_among(sites) >= site_votes.abort_quorum,
        },
        TerminationKind::Tp1 => match attempt {
            // w(x) votes for every item from {PC repliers} ∪ {PC-ackers}.
            Decision::Commit => write_quorum_every_item(catalog, spec, sites),
            // r(x) votes for some item from {PA repliers} ∪ {PA-ackers}.
            Decision::Abort => read_quorum_some_item(catalog, spec, sites),
        },
        TerminationKind::Tp2 => match attempt {
            Decision::Commit => read_quorum_some_item(catalog, spec, sites),
            Decision::Abort => write_quorum_every_item(catalog, spec, sites),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProtocolKind, TxnId, WriteSet};
    use qbc_votes::{CatalogBuilder, ItemId};

    /// The paper's Example 1/4 configuration: x at s1–s4, y at s5–s8,
    /// unit votes, r = 2, w = 3.
    fn example_catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(1), SiteId(2), SiteId(3), SiteId(4)])
            .quorums(2, 3)
            .item(ItemId(1))
            .copies_at([SiteId(5), SiteId(6), SiteId(7), SiteId(8)])
            .quorums(2, 3)
            .build()
            .unwrap()
    }

    fn example_spec() -> TxnSpec {
        TxnSpec {
            id: TxnId(1),
            coordinator: SiteId(1),
            writeset: WriteSet::new([(ItemId(0), 1), (ItemId(1), 2)]),
            participants: (1..=8).map(SiteId).collect(),
            protocol: ProtocolKind::QuorumCommit1,
            parent: None,
        }
    }

    fn view(pairs: &[(u32, LocalState)]) -> StateView {
        StateView::from_pairs(pairs.iter().map(|&(s, st)| (SiteId(s), st)))
    }

    use LocalState::*;

    #[test]
    fn example4_g1_forms_abort_quorum_under_tp1() {
        // G1 = {s2, s3}, both in W: 2 votes of x ≥ r(x)=2 from non-PC
        // sites → abort quorum possible (rule 4). This is the paper's
        // Example 4 claim for partition G1.
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[(2, Wait), (3, Wait)]),
        );
        assert_eq!(out, Phase2Outcome::AttemptAbort);
    }

    #[test]
    fn example4_g3_forms_abort_quorum_under_tp1() {
        // G3 = {s6, s7, s8} in W: 3 votes of y ≥ r(y)=2 → abort quorum.
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[(6, Wait), (7, Wait), (8, Wait)]),
        );
        assert_eq!(out, Phase2Outcome::AttemptAbort);
    }

    #[test]
    fn example1_g2_blocks_under_tp1() {
        // G2 = {s4, s5}: one copy of x (1 < r=2), one of y (1 < 2, and s5
        // is in PC so its vote doesn't count toward abort) → block.
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[(4, Wait), (5, PreCommit)]),
        );
        assert_eq!(out, Phase2Outcome::Block);
    }

    #[test]
    fn example1_all_partitions_block_under_skeen() {
        // Skeen [16] with Vc = 5, Va = 4 over 8 unit-vote sites: all
        // three partitions of Fig. 3 block (the paper's Example 1).
        let sv = SiteVotes::uniform((1..=8).map(SiteId), 5, 4);
        let kind = TerminationKind::SkeenQuorum(sv);
        let cat = example_catalog();
        let spec = example_spec();
        let g1 = view(&[(2, Wait), (3, Wait)]);
        let g2 = view(&[(4, Wait), (5, PreCommit)]);
        let g3 = view(&[(6, Wait), (7, Wait), (8, Wait)]);
        assert_eq!(phase2(&kind, &cat, &spec, &g1), Phase2Outcome::Block);
        assert_eq!(phase2(&kind, &cat, &spec, &g2), Phase2Outcome::Block);
        assert_eq!(phase2(&kind, &cat, &spec, &g3), Phase2Outcome::Block);
    }

    #[test]
    fn example2_three_pc_tp_terminates_inconsistently() {
        // 3PC termination: G2 (contains s5 in PC) commits, G1 and G3
        // (all W) abort — the inconsistency of Example 2.
        let kind = TerminationKind::ThreePcSiteFailure;
        let cat = example_catalog();
        let spec = example_spec();
        assert_eq!(
            phase2(&kind, &cat, &spec, &view(&[(2, Wait), (3, Wait)])),
            Phase2Outcome::Immediate(Decision::Abort)
        );
        assert_eq!(
            phase2(&kind, &cat, &spec, &view(&[(4, Wait), (5, PreCommit)])),
            Phase2Outcome::Immediate(Decision::Commit)
        );
        assert_eq!(
            phase2(
                &kind,
                &cat,
                &spec,
                &view(&[(6, Wait), (7, Wait), (8, Wait)])
            ),
            Phase2Outcome::Immediate(Decision::Abort)
        );
    }

    #[test]
    fn tp1_immediate_commit_via_pc_write_quorums() {
        // PC sites s2,s3,s4 give 3 = w(x) votes of x; s5,s6,s7 give
        // 3 = w(y) votes of y → rule 1 immediate commit.
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[
                (2, PreCommit),
                (3, PreCommit),
                (4, PreCommit),
                (5, PreCommit),
                (6, PreCommit),
                (7, PreCommit),
            ]),
        );
        assert_eq!(out, Phase2Outcome::Immediate(Decision::Commit));
    }

    #[test]
    fn tp1_immediate_abort_on_initial_state() {
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[(2, Initial), (3, Wait)]),
        );
        assert_eq!(out, Phase2Outcome::Immediate(Decision::Abort));
    }

    #[test]
    fn tp1_immediate_abort_via_pa_read_quorum() {
        // PA sites s2,s3 hold 2 = r(x) votes of x → immediate abort.
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&[(2, PreAbort), (3, PreAbort), (4, Wait)]),
        );
        assert_eq!(out, Phase2Outcome::Immediate(Decision::Abort));
    }

    #[test]
    fn tp1_commit_quorum_needs_a_pc_witness() {
        // All eight sites in W: write quorums present among non-PA sites,
        // but no PC witness → rule 3 does not fire; rule 4 (abort) does.
        let all_w: Vec<(u32, LocalState)> = (1..=8).map(|s| (s, Wait)).collect();
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&all_w),
        );
        assert_eq!(out, Phase2Outcome::AttemptAbort);
    }

    #[test]
    fn tp1_commit_quorum_with_pc_and_full_write_votes() {
        // s5 in PC plus everyone else in W: non-PA votes cover w(x) and
        // w(y) → attempt commit (rule 3 precedes rule 4).
        let mut pairs: Vec<(u32, LocalState)> = (1..=8).map(|s| (s, Wait)).collect();
        pairs[4] = (5, PreCommit);
        let out = phase2(
            &TerminationKind::Tp1,
            &example_catalog(),
            &example_spec(),
            &view(&pairs),
        );
        assert_eq!(out, Phase2Outcome::AttemptCommit);
    }

    #[test]
    fn tp2_commit_quorum_needs_only_r_votes() {
        // TP2 rule 3: ∃PC and r(x) votes for some x from non-PA sites.
        // G2 = {s4 (W), s5 (PC)}: s4 holds 1 vote of x < r(x)=2; s5 holds
        // 1 vote of y... wait s4 holds x4, s5 holds y5: votes(x,{s4,s5})=1,
        // votes(y,{s4,s5})=1, both < 2 → still blocked in TP2.
        let out = phase2(
            &TerminationKind::Tp2,
            &example_catalog(),
            &example_spec(),
            &view(&[(4, Wait), (5, PreCommit)]),
        );
        assert_eq!(out, Phase2Outcome::Block);
    }

    #[test]
    fn tp2_commit_beats_tp1_with_partial_votes() {
        // {s4 (W), s5 (PC), s6 (W)}: votes(y, non-PA) = 2 ≥ r(y) → TP2
        // attempts commit, while TP1 (needs w ∀x) attempts... votes of x
        // among non-PC = s4,s6 → 1 < r(x)=2; votes(y, non-PC)= s6 =1 <2;
        // so TP1 blocks but TP2 commits: the availability gap.
        let pairs = [(4, Wait), (5, PreCommit), (6, Wait)];
        let cat = example_catalog();
        let spec = example_spec();
        assert_eq!(
            phase2(&TerminationKind::Tp2, &cat, &spec, &view(&pairs)),
            Phase2Outcome::AttemptCommit
        );
        assert_eq!(
            phase2(&TerminationKind::Tp1, &cat, &spec, &view(&pairs)),
            Phase2Outcome::Block
        );
    }

    #[test]
    fn tp2_abort_needs_write_quorum_every_item() {
        // TP2 rule 4 requires w(x) votes ∀x from non-PC: G3 = {s6,s7,s8}
        // has 3 = w(y) votes of y but 0 votes of x → no abort; blocks.
        let out = phase2(
            &TerminationKind::Tp2,
            &example_catalog(),
            &example_spec(),
            &view(&[(6, Wait), (7, Wait), (8, Wait)]),
        );
        assert_eq!(out, Phase2Outcome::Block);
    }

    #[test]
    fn two_pc_cooperative_adopts_known_decisions() {
        let kind = TerminationKind::TwoPcCooperative;
        let cat = example_catalog();
        let spec = example_spec();
        assert_eq!(
            phase2(&kind, &cat, &spec, &view(&[(2, Committed), (3, Wait)])),
            Phase2Outcome::Immediate(Decision::Commit)
        );
        assert_eq!(
            phase2(&kind, &cat, &spec, &view(&[(2, Initial), (3, Wait)])),
            Phase2Outcome::Immediate(Decision::Abort)
        );
        assert_eq!(
            phase2(&kind, &cat, &spec, &view(&[(2, Wait), (3, Wait)])),
            Phase2Outcome::Block
        );
    }

    #[test]
    fn phase3_tp1_commit_requires_w_votes_every_item() {
        let cat = example_catalog();
        let spec = example_spec();
        // s2,s3,s4 cover w(x)=3 but y has no votes → not satisfied.
        let partial: BTreeSet<SiteId> = [SiteId(2), SiteId(3), SiteId(4)].into();
        assert!(!phase3_satisfied(
            &TerminationKind::Tp1,
            &cat,
            &spec,
            Decision::Commit,
            &partial
        ));
        let full: BTreeSet<SiteId> = [2, 3, 4, 5, 6, 7].into_iter().map(SiteId).collect();
        assert!(phase3_satisfied(
            &TerminationKind::Tp1,
            &cat,
            &spec,
            Decision::Commit,
            &full
        ));
    }

    #[test]
    fn phase3_tp1_abort_requires_r_votes_some_item() {
        let cat = example_catalog();
        let spec = example_spec();
        let g1: BTreeSet<SiteId> = [SiteId(2), SiteId(3)].into();
        assert!(phase3_satisfied(
            &TerminationKind::Tp1,
            &cat,
            &spec,
            Decision::Abort,
            &g1
        ));
        let nothing: BTreeSet<SiteId> = [SiteId(4)].into();
        assert!(!phase3_satisfied(
            &TerminationKind::Tp1,
            &cat,
            &spec,
            Decision::Abort,
            &nothing
        ));
    }

    #[test]
    fn phase3_skeen_counts_site_votes() {
        let sv = SiteVotes::uniform((1..=8).map(SiteId), 5, 4);
        let kind = TerminationKind::SkeenQuorum(sv);
        let cat = example_catalog();
        let spec = example_spec();
        let five: BTreeSet<SiteId> = (1..=5).map(SiteId).collect();
        assert!(phase3_satisfied(
            &kind,
            &cat,
            &spec,
            Decision::Commit,
            &five
        ));
        let four: BTreeSet<SiteId> = (1..=4).map(SiteId).collect();
        assert!(!phase3_satisfied(
            &kind,
            &cat,
            &spec,
            Decision::Commit,
            &four
        ));
        assert!(phase3_satisfied(&kind, &cat, &spec, Decision::Abort, &four));
    }

    #[test]
    fn commit_and_abort_quorums_cannot_coexist_tp1() {
        // Structural safety: if one partition can attempt commit, no
        // disjoint partition can attempt abort. Exhaustive over all
        // 2-partitions of the 8 sites with s5 in PC in the commit side.
        let cat = example_catalog();
        let spec = example_spec();
        let sites: Vec<u32> = (1..=8).collect();
        for mask in 0u32..(1 << 8) {
            let left: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|i| mask & (1 << (i - 1)) != 0)
                .collect();
            let right: Vec<u32> = sites
                .iter()
                .copied()
                .filter(|i| mask & (1 << (i - 1)) == 0)
                .collect();
            // Left states: W except s5 in PC (if present).
            let lview = view(
                &left
                    .iter()
                    .map(|&s| (s, if s == 5 { PreCommit } else { Wait }))
                    .collect::<Vec<_>>(),
            );
            let rview = view(&right.iter().map(|&s| (s, Wait)).collect::<Vec<_>>());
            let l = phase2(&TerminationKind::Tp1, &cat, &spec, &lview);
            let r = phase2(&TerminationKind::Tp1, &cat, &spec, &rview);
            // The dangerous pair: one side can complete a commit while
            // the other completes an abort.
            let l_commit = matches!(
                l,
                Phase2Outcome::AttemptCommit | Phase2Outcome::Immediate(Decision::Commit)
            );
            let r_abort = matches!(
                r,
                Phase2Outcome::AttemptAbort | Phase2Outcome::Immediate(Decision::Abort)
            );
            if l_commit && r_abort {
                // Commit needs w(x) non-PA votes ∀x on the left; abort
                // needs r(x) non-PC votes ∃x on the right; disjointness +
                // r+w>v makes both impossible. (Immediate aborts via
                // q/A states don't arise here: all states are W/PC.)
                panic!("commit/abort quorums coexist for mask {mask:08b}");
            }
        }
    }
}
