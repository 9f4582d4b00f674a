//! The normal-case commit coordinator (Figs. 1, 2 and 9).
//!
//! One engine serves all five protocol variants; they differ only in the
//! *commit point*:
//!
//! * **2PC** — commit as soon as every participant votes yes (no prepare
//!   round; blocking under coordinator failure).
//! * **3PC** — prepare round, commit after *all* PC-ACKs (or after the
//!   ack window expires: straggling participants are presumed crashed
//!   and will be handled by recovery/termination).
//! * **Skeen `[16]`** — prepare round, commit once PC-ACKs carry `Vc`
//!   *site* votes.
//! * **QC1** (Fig. 9) — commit once PC-ACKs carry `w(x)` copy votes for
//!   **every** writeset item: from that instant no abort quorum can ever
//!   form.
//! * **QC2** — commit once PC-ACKs carry `r(x)` copy votes for **some**
//!   writeset item: likewise kills all abort quorums, and is reached
//!   sooner. This is why "commit protocol 2 runs faster than commit
//!   protocol 1" (§3.2).

use crate::actions::{Action, TimerKind};
use crate::log::LogRecord;
use crate::messages::Msg;
use crate::types::{Decision, ProtocolKind, SiteVotes, TxnId, TxnSpec};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, Version};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Coordinator progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordPhase {
    /// Phase 1: waiting for votes.
    SolicitingVotes,
    /// Phase 2 (not in 2PC): waiting for PC-ACKs.
    Preparing,
    /// Branch of a cross-shard transaction at its in-shard commit point:
    /// prepared but undecided. The engine has voted yes to the parent
    /// and holds here — only the parent's `X-DECIDE` terminates it.
    Held,
    /// Decision reached and commanded.
    Decided(Decision),
    /// Gave up (quorum protocols): handed off to the termination path.
    HandedOff,
}

/// One writeset item's pre-resolved ack arithmetic: the copy weights
/// and quorums are fixed for the life of the transaction, so they are
/// snapshotted from the catalog once (when the prepare round starts)
/// and every PC-ACK afterwards costs a small in-cache scan instead of a
/// catalog walk per item per ack.
#[derive(Clone, Debug)]
struct ItemTally {
    /// Copy holders and their vote weights, in site order.
    copies: Vec<(SiteId, u32)>,
    /// `w(x)` — the QC1 commit point per item.
    write_quorum: u32,
    /// `r(x)` — the QC2 commit point per item.
    read_quorum: u32,
    /// Votes accumulated from distinct ackers so far.
    acked: u32,
}

/// The normal-case coordinator engine for one transaction.
#[derive(Clone, Debug)]
pub struct Coordinator {
    spec: Arc<TxnSpec>,
    /// Site-vote parameters (Skeen `[16]` only).
    site_votes: Option<SiteVotes>,
    phase: CoordPhase,
    votes: BTreeMap<SiteId, (bool, Version)>,
    pc_acks: BTreeSet<SiteId>,
    /// One tally per writeset item (QC1/QC2 only; built at prepare).
    tallies: Vec<ItemTally>,
    commit_version: Option<Version>,
    /// Seeded mutation for checker validation: accept one PC-ACK less
    /// than the write quorum at the QC1 commit point. Never set outside
    /// tests — it re-opens the abort-quorum window the paper's rule
    /// closes, and the model checker exists to prove it would notice.
    weaken_qc1: bool,
}

impl Coordinator {
    /// Creates the engine. `site_votes` is required for
    /// [`ProtocolKind::SkeenQuorum`] and ignored otherwise.
    pub fn new(spec: Arc<TxnSpec>, site_votes: Option<SiteVotes>) -> Self {
        debug_assert!(
            spec.protocol != ProtocolKind::SkeenQuorum || site_votes.is_some(),
            "Skeen quorum commit needs site votes"
        );
        Coordinator {
            spec,
            site_votes,
            phase: CoordPhase::SolicitingVotes,
            votes: BTreeMap::new(),
            pc_acks: BTreeSet::new(),
            tallies: Vec::new(),
            commit_version: None,
            weaken_qc1: false,
        }
    }

    /// Installs the seeded QC1 mutation (see the field doc). Test-only
    /// by convention; the model-check suite proves it is caught.
    pub fn with_weakened_qc1(mut self) -> Self {
        self.weaken_qc1 = true;
        self
    }

    /// Snapshots the per-item quorum arithmetic for the ack round. An
    /// item missing from the catalog gets unsatisfiable quorums, which
    /// preserves the lookup-per-ack behaviour (`None` => never commit).
    fn build_tallies(&mut self, catalog: &Catalog) {
        if !matches!(
            self.spec.protocol,
            ProtocolKind::QuorumCommit1 | ProtocolKind::QuorumCommit2
        ) {
            return;
        }
        self.tallies = self
            .spec
            .writeset
            .items()
            .map(|x| match catalog.item(x) {
                Some(i) => ItemTally {
                    copies: i.copies.iter().map(|(&s, &w)| (s, w)).collect(),
                    write_quorum: i.write_quorum,
                    read_quorum: i.read_quorum,
                    acked: 0,
                },
                None => ItemTally {
                    copies: Vec::new(),
                    write_quorum: u32::MAX,
                    read_quorum: u32::MAX,
                    acked: 0,
                },
            })
            .collect();
    }

    /// The transaction.
    pub fn txn(&self) -> TxnId {
        self.spec.id
    }

    /// Current phase.
    pub fn phase(&self) -> CoordPhase {
        self.phase
    }

    /// The commit version, once all votes arrived.
    pub fn commit_version(&self) -> Option<Version> {
        self.commit_version
    }

    /// Kicks off phase 1: durably record coordinatorship, distribute the
    /// spec (update values included) and wait `2T` for votes. Actions
    /// are appended to the caller's scratch buffer (as everywhere on
    /// this engine: no per-event allocation in steady state).
    pub fn start(&mut self, out: &mut Vec<Action>) {
        let everyone: Vec<SiteId> = self.spec.participants.iter().copied().collect();
        out.push(Action::Log(LogRecord::CoordinatorStart {
            spec: Arc::clone(&self.spec),
        }));
        out.push(Action::Broadcast(
            everyone,
            Msg::VoteReq {
                spec: Arc::clone(&self.spec),
            },
        ));
        out.push(Action::SetTimer(TimerKind::VoteCollection {
            txn: self.spec.id,
        }));
    }

    /// Handles a vote.
    pub fn on_vote(
        &mut self,
        from: SiteId,
        yes: bool,
        max_version: Version,
        catalog: &Catalog,
        out: &mut Vec<Action>,
    ) {
        match self.phase {
            CoordPhase::SolicitingVotes => {}
            // A late vote after the decision: help the laggard.
            CoordPhase::Decided(d) => {
                out.push(self.decision_reply(d));
                return;
            }
            _ => return,
        }
        if !self.spec.participants.contains(&from) {
            return;
        }
        self.votes.insert(from, (yes, max_version));
        if !yes {
            // "The transaction can be committed iff every site votes yes."
            self.abort_unilaterally(out);
            return;
        }
        if self.votes.len() == self.spec.participants.len() {
            // All yes: fix the commit version — one past the newest copy
            // any participant holds (Gifford's currency rule).
            let v = self
                .votes
                .values()
                .map(|(_, v)| *v)
                .max()
                .unwrap_or(Version::INITIAL);
            self.commit_version = Some(v.next());
            match self.spec.protocol {
                // 2PC has no prepare round: all-yes is its commit point.
                // For a branch, durable yes votes *are* the prepared
                // state (classic hierarchical 2PC), so hold there.
                ProtocolKind::TwoPhase if self.spec.is_branch() => self.hold_and_vote_yes(out),
                ProtocolKind::TwoPhase => self.decide(Decision::Commit, out),
                _ => {
                    self.phase = CoordPhase::Preparing;
                    self.build_tallies(catalog);
                    let everyone: Vec<SiteId> = self.spec.participants.iter().copied().collect();
                    out.push(Action::Broadcast(
                        everyone,
                        Msg::PrepareCommit {
                            txn: self.spec.id,
                            commit_version: self.commit_version.expect("just set"),
                        },
                    ));
                    out.push(Action::SetTimer(TimerKind::AckCollection {
                        txn: self.spec.id,
                    }));
                }
            }
        }
    }

    fn decision_reply(&self, d: Decision) -> Action {
        match d {
            Decision::Commit => Action::Reply(Msg::Commit {
                txn: self.spec.id,
                commit_version: self.commit_version.expect("decided commit has version"),
            }),
            Decision::Abort => Action::Reply(Msg::Abort { txn: self.spec.id }),
        }
    }

    /// Handles a PC-ACK; commits when the protocol's commit point is
    /// reached.
    pub fn on_pc_ack(&mut self, from: SiteId, _catalog: &Catalog, out: &mut Vec<Action>) {
        if self.phase != CoordPhase::Preparing {
            return;
        }
        if self.pc_acks.insert(from) {
            // First ack from this site: fold its copy weights into the
            // per-item tallies (duplicates must not double-count).
            for t in &mut self.tallies {
                if let Some(&(_, w)) = t.copies.iter().find(|&&(s, _)| s == from) {
                    t.acked += w;
                }
            }
        }
        if self.commit_point_reached() {
            if self.spec.is_branch() {
                self.hold_and_vote_yes(out);
            } else {
                self.decide(Decision::Commit, out);
            }
        }
    }

    /// Branch commit point: instead of committing, hold and cast this
    /// shard's yes vote to the cross-shard coordinator. From here on the
    /// branch may not decide unilaterally — no log record is needed,
    /// because recovery of a (non-2PC-parented) branch coordinator never
    /// presumes abort; it rediscovers the outcome from the parent.
    fn hold_and_vote_yes(&mut self, out: &mut Vec<Action>) {
        let parent = self.spec.parent.expect("held only for branches");
        self.phase = CoordPhase::Held;
        out.push(Action::Send(
            parent,
            Msg::XVote {
                txn: self.spec.id,
                yes: true,
                commit_version: self.commit_version,
            },
        ));
    }

    /// Aborts before this branch voted yes (no vote received, or the
    /// vote window expired) — always safe: the parent has not counted a
    /// yes from this shard. A plain transaction aborts exactly as
    /// before; a branch additionally reports the no vote upward.
    fn abort_unilaterally(&mut self, out: &mut Vec<Action>) {
        self.decide(Decision::Abort, out);
        if let Some(parent) = self.spec.parent {
            out.push(Action::Send(
                parent,
                Msg::XVote {
                    txn: self.spec.id,
                    yes: false,
                    commit_version: None,
                },
            ));
        }
    }

    /// The cross-shard decision arrived (branches only): terminate the
    /// held branch with the parent's outcome. Idempotent once decided.
    pub fn on_x_decide(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
        out: &mut Vec<Action>,
    ) {
        debug_assert!(self.spec.is_branch(), "X-DECIDE at a non-branch engine");
        match self.phase {
            CoordPhase::Decided(_) => {}
            _ => {
                if decision == Decision::Commit && commit_version.is_some() {
                    // The parent echoes the version we reported at Held;
                    // adopt it (defensive no-op in the normal case).
                    self.commit_version = commit_version;
                }
                self.decide(decision, out);
            }
        }
    }

    /// The protocol-specific commit point over the current ack set.
    /// The quorum tallies are maintained incrementally by `on_pc_ack`
    /// (from the catalog snapshot taken at prepare), so the check needs
    /// no catalog: it scans the writeset-sized tally list.
    fn commit_point_reached(&self) -> bool {
        match self.spec.protocol {
            ProtocolKind::TwoPhase => false, // no prepare phase
            ProtocolKind::ThreePhase => self.pc_acks.len() == self.spec.participants.len(),
            ProtocolKind::SkeenQuorum => {
                let sv = self.site_votes.as_ref().expect("validated in new()");
                sv.votes_among(&self.pc_acks) >= sv.commit_quorum
            }
            // QC1: w(x) PC-ACK votes for every x — "receiving these
            // PC-ACKs ensures that an abort quorum can never be formed".
            // An empty writeset has no item below quorum, matching the
            // catalog-walk semantics (`all` over nothing is true).
            ProtocolKind::QuorumCommit1 => {
                // Seeded mutation (`weaken_qc1`): one ack short of the
                // quorum "counts" — exactly the off-by-one the paper's
                // abort-quorum argument forbids.
                let slack = u32::from(self.weaken_qc1);
                self.tallies
                    .iter()
                    .all(|t| t.acked + slack >= t.write_quorum)
            }
            // QC2: r(x) PC-ACK votes for some x.
            ProtocolKind::QuorumCommit2 => self.tallies.iter().any(|t| t.acked >= t.read_quorum),
            // Paxos Commit runs its own engine ([`crate::PaxosLeader`]);
            // this coordinator never drives it.
            ProtocolKind::PaxosCommit => {
                unreachable!("Paxos Commit transactions use PaxosLeader, not Coordinator")
            }
        }
    }

    /// Commits or aborts: force-log the decision, then command everyone.
    fn decide(&mut self, decision: Decision, out: &mut Vec<Action>) {
        self.phase = CoordPhase::Decided(decision);
        let everyone: Vec<SiteId> = self.spec.participants.iter().copied().collect();
        match decision {
            Decision::Commit => {
                let v = self.commit_version.expect("commit implies version");
                out.push(Action::Log(LogRecord::Decided {
                    txn: self.spec.id,
                    decision,
                    commit_version: Some(v),
                }));
                out.push(Action::Broadcast(
                    everyone,
                    Msg::Commit {
                        txn: self.spec.id,
                        commit_version: v,
                    },
                ));
            }
            Decision::Abort => {
                out.push(Action::Log(LogRecord::Decided {
                    txn: self.spec.id,
                    decision,
                    commit_version: None,
                }));
                out.push(Action::Broadcast(
                    everyone,
                    Msg::Abort { txn: self.spec.id },
                ));
            }
        }
    }

    /// Vote-collection window expired.
    pub fn on_vote_timer(&mut self, out: &mut Vec<Action>) {
        if self.phase != CoordPhase::SolicitingVotes {
            return;
        }
        // Missing votes: presumed-abort (safe for branches too — the
        // yes vote to the parent has not been cast).
        self.abort_unilaterally(out);
    }

    /// Ack-collection window expired.
    pub fn on_ack_timer(&mut self, _catalog: &Catalog, out: &mut Vec<Action>) {
        if self.phase != CoordPhase::Preparing {
            return;
        }
        match self.spec.protocol {
            // 3PC proceeds: non-acking participants are presumed crashed;
            // they will learn the outcome at recovery. (Under a
            // *partition* this presumption is exactly what Example 2
            // exploits — faithful to the original protocol.) A branch
            // holds at this commit point instead of committing.
            ProtocolKind::ThreePhase if self.spec.is_branch() => self.hold_and_vote_yes(out),
            ProtocolKind::ThreePhase => self.decide(Decision::Commit, out),
            // The quorum protocols may not commit below quorum: hand off
            // to the termination protocol (the coordinator is also a
            // participant and will take part).
            ProtocolKind::SkeenQuorum
            | ProtocolKind::QuorumCommit1
            | ProtocolKind::QuorumCommit2 => {
                if self.commit_point_reached() {
                    if self.spec.is_branch() {
                        self.hold_and_vote_yes(out);
                    } else {
                        self.decide(Decision::Commit, out);
                    }
                } else if self.spec.is_branch() {
                    // Below quorum, but PREPARE-TO-COMMITs are out: some
                    // participants may durably be in PC, so a unilateral
                    // abort is no longer this engine's call and the
                    // in-shard termination path is disabled for branches.
                    // Keep collecting: either the acks complete (→ Held)
                    // or the parent's vote window expires and X-DECIDE
                    // aborts the branch.
                } else {
                    self.phase = CoordPhase::HandedOff;
                    out.push(Action::RequestTermination { txn: self.spec.id });
                }
            }
            ProtocolKind::TwoPhase => {}
            ProtocolKind::PaxosCommit => {
                unreachable!("Paxos Commit transactions use PaxosLeader, not Coordinator")
            }
        }
    }
}

/// Collecting wrappers for unit tests: same engine calls, fresh buffer
/// per call (production code passes a reused scratch buffer instead).
#[cfg(test)]
impl Coordinator {
    fn start_v(&mut self) -> Vec<Action> {
        let mut v = Vec::new();
        self.start(&mut v);
        v
    }

    fn on_vote_v(
        &mut self,
        from: SiteId,
        yes: bool,
        max_version: Version,
        catalog: &Catalog,
    ) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_vote(from, yes, max_version, catalog, &mut v);
        v
    }

    fn on_pc_ack_v(&mut self, from: SiteId, catalog: &Catalog) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_pc_ack(from, catalog, &mut v);
        v
    }

    fn on_x_decide_v(
        &mut self,
        decision: Decision,
        commit_version: Option<Version>,
    ) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_x_decide(decision, commit_version, &mut v);
        v
    }

    fn on_vote_timer_v(&mut self) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_vote_timer(&mut v);
        v
    }

    fn on_ack_timer_v(&mut self, catalog: &Catalog) -> Vec<Action> {
        let mut v = Vec::new();
        self.on_ack_timer(catalog, &mut v);
        v
    }
}

/// Canonical state hash for the model checker's visited-set.
///
/// Hashes the live protocol state — phase, recorded votes, PC-ACK set,
/// quorum tallies and the chosen commit version — all held in ordered
/// containers, so the rendering is canonical. The spec is excluded: it
/// is fixed per transaction id, which the node-level fingerprint hashes.
impl qbc_simnet::Fingerprint for Coordinator {
    fn fingerprint(&self, _now: qbc_simnet::Time, h: &mut qbc_simnet::FastHasher) {
        use std::hash::Hasher;
        h.write(
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                self.phase, self.votes, self.pc_acks, self.tallies, self.commit_version
            )
            .as_bytes(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::WriteSet;
    use qbc_votes::{CatalogBuilder, ItemId};

    fn catalog() -> Catalog {
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

    fn spec(protocol: ProtocolKind) -> std::sync::Arc<TxnSpec> {
        std::sync::Arc::new(TxnSpec {
            id: TxnId(9),
            coordinator: SiteId(1),
            writeset: WriteSet::new([(ItemId(0), 10), (ItemId(1), 20)]),
            participants: (1..=8).map(SiteId).collect(),
            protocol,
            parent: None,
        })
    }

    fn all_yes(c: &mut Coordinator, cat: &Catalog, upto: u32) -> Vec<Action> {
        let mut last = Vec::new();
        for s in 1..=upto {
            last = c.on_vote_v(SiteId(s), true, Version(0), cat);
        }
        last
    }

    #[test]
    fn two_pc_commits_on_last_yes_vote() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        let start = c.start_v();
        assert!(matches!(
            start[0],
            Action::Log(LogRecord::CoordinatorStart { .. })
        ));
        assert!(matches!(
            start[1],
            Action::Broadcast(_, Msg::VoteReq { .. })
        ));
        let actions = all_yes(&mut c, &cat, 8);
        // Decision logged before the command is sent.
        assert!(matches!(actions[0], Action::Log(LogRecord::Decided { .. })));
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Commit));
        assert_eq!(c.commit_version(), Some(Version(1)));
    }

    #[test]
    fn any_no_vote_aborts() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        c.start_v();
        c.on_vote_v(SiteId(1), true, Version(0), &cat);
        let actions = c.on_vote_v(SiteId(2), false, Version(0), &cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Abort));
    }

    #[test]
    fn commit_version_is_max_reported_plus_one() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        c.start_v();
        for s in 1..=7u32 {
            c.on_vote_v(SiteId(s), true, Version(s as u64), &cat);
        }
        c.on_vote_v(SiteId(8), true, Version(3), &cat);
        assert_eq!(c.commit_version(), Some(Version(8)));
    }

    #[test]
    fn three_pc_waits_for_all_acks() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::ThreePhase), None);
        c.start_v();
        let actions = all_yes(&mut c, &cat, 8);
        assert!(matches!(
            actions[0],
            Action::Broadcast(_, Msg::PrepareCommit { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Preparing);
        for s in 1..=7u32 {
            assert!(
                c.on_pc_ack_v(SiteId(s), &cat).is_empty(),
                "must wait for all"
            );
        }
        let actions = c.on_pc_ack_v(SiteId(8), &cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn qc1_commits_at_write_quorum_of_every_item() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        // Acks from s1,s2,s3 (3 = w(x) votes of x, 0 of y): not yet.
        for s in 1..=3u32 {
            assert!(c.on_pc_ack_v(SiteId(s), &cat).is_empty());
        }
        // s5,s6: y at 2 < 3.
        assert!(c.on_pc_ack_v(SiteId(5), &cat).is_empty());
        assert!(c.on_pc_ack_v(SiteId(6), &cat).is_empty());
        // s7 completes w(y)=3 → commit with 5-of-8 acks outstanding... 6 acks.
        let actions = c.on_pc_ack_v(SiteId(7), &cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn qc2_commits_at_read_quorum_of_some_item() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::QuorumCommit2), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        assert!(
            c.on_pc_ack_v(SiteId(1), &cat).is_empty(),
            "1 vote of x < r=2"
        );
        // Second x-copy ack reaches r(x)=2 → commit after only 2 acks:
        // QC2's speed advantage over QC1.
        let actions = c.on_pc_ack_v(SiteId(2), &cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn skeen_commits_at_vc_site_votes() {
        let cat = catalog();
        let sv = SiteVotes::uniform((1..=8).map(SiteId), 5, 4);
        let mut c = Coordinator::new(spec(ProtocolKind::SkeenQuorum), Some(sv));
        c.start_v();
        all_yes(&mut c, &cat, 8);
        for s in 1..=4u32 {
            assert!(c.on_pc_ack_v(SiteId(s), &cat).is_empty());
        }
        let actions = c.on_pc_ack_v(SiteId(5), &cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn vote_timeout_aborts() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        all_yes(&mut c, &cat, 4); // half the votes
        let actions = c.on_vote_timer_v();
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Abort));
    }

    #[test]
    fn three_pc_ack_timeout_commits_anyway() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::ThreePhase), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        c.on_pc_ack_v(SiteId(1), &cat);
        let actions = c.on_ack_timer_v(&cat);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
    }

    #[test]
    fn qc1_ack_timeout_below_quorum_hands_off() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        c.on_pc_ack_v(SiteId(1), &cat);
        let actions = c.on_ack_timer_v(&cat);
        assert!(matches!(actions[0], Action::RequestTermination { .. }));
        assert_eq!(c.phase(), CoordPhase::HandedOff);
    }

    #[test]
    fn late_vote_after_decision_gets_the_command() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        let actions = c.on_vote_v(SiteId(3), true, Version(0), &cat);
        assert!(matches!(actions[0], Action::Reply(Msg::Commit { .. })));
    }

    #[test]
    fn votes_from_non_participants_ignored() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        c.start_v();
        assert!(c.on_vote_v(SiteId(99), true, Version(0), &cat).is_empty());
        assert_eq!(c.phase(), CoordPhase::SolicitingVotes);
    }

    fn branch_spec(protocol: ProtocolKind) -> std::sync::Arc<TxnSpec> {
        std::sync::Arc::new(TxnSpec {
            parent: Some(SiteId(42)),
            ..(*spec(protocol)).clone()
        })
    }

    #[test]
    fn branch_holds_at_commit_point_and_votes_yes_upward() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::QuorumCommit2), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        assert!(c.on_pc_ack_v(SiteId(1), &cat).is_empty());
        let actions = c.on_pc_ack_v(SiteId(2), &cat);
        assert!(
            matches!(
                actions[0],
                Action::Send(
                    SiteId(42),
                    Msg::XVote {
                        yes: true,
                        commit_version: Some(Version(1)),
                        ..
                    }
                )
            ),
            "commit point of a branch casts the X vote instead of committing: {actions:?}"
        );
        assert_eq!(c.phase(), CoordPhase::Held);
    }

    #[test]
    fn branch_two_phase_holds_on_all_yes() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::TwoPhase), None);
        c.start_v();
        let actions = all_yes(&mut c, &cat, 8);
        assert!(matches!(
            actions[0],
            Action::Send(SiteId(42), Msg::XVote { yes: true, .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Held);
    }

    #[test]
    fn branch_no_vote_aborts_and_reports_upward() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        c.on_vote_v(SiteId(1), true, Version(0), &cat);
        let actions = c.on_vote_v(SiteId(2), false, Version(0), &cat);
        assert!(matches!(actions[0], Action::Log(LogRecord::Decided { .. })));
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
        assert!(matches!(
            actions.last(),
            Some(Action::Send(SiteId(42), Msg::XVote { yes: false, .. }))
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Abort));
    }

    #[test]
    fn branch_ack_timeout_below_quorum_keeps_waiting() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        c.on_pc_ack_v(SiteId(1), &cat);
        assert!(
            c.on_ack_timer_v(&cat).is_empty(),
            "a branch below quorum must not hand off to in-shard termination"
        );
        assert_eq!(c.phase(), CoordPhase::Preparing);
    }

    #[test]
    fn x_decide_terminates_a_held_branch() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::QuorumCommit2), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        c.on_pc_ack_v(SiteId(1), &cat);
        c.on_pc_ack_v(SiteId(2), &cat);
        assert_eq!(c.phase(), CoordPhase::Held);
        let actions = c.on_x_decide_v(Decision::Commit, Some(Version(1)));
        assert!(matches!(actions[0], Action::Log(LogRecord::Decided { .. })));
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Commit { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Commit));
        // Idempotent once decided.
        assert!(c
            .on_x_decide_v(Decision::Commit, Some(Version(1)))
            .is_empty());
    }

    #[test]
    fn x_decide_abort_terminates_a_preparing_branch() {
        let cat = catalog();
        let mut c = Coordinator::new(branch_spec(ProtocolKind::QuorumCommit1), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        let actions = c.on_x_decide_v(Decision::Abort, None);
        assert!(matches!(
            actions[1],
            Action::Broadcast(_, Msg::Abort { .. })
        ));
        assert_eq!(c.phase(), CoordPhase::Decided(Decision::Abort));
    }

    #[test]
    fn stale_ack_timer_after_decision_is_noop() {
        let cat = catalog();
        let mut c = Coordinator::new(spec(ProtocolKind::ThreePhase), None);
        c.start_v();
        all_yes(&mut c, &cat, 8);
        for s in 1..=8u32 {
            c.on_pc_ack_v(SiteId(s), &cat);
        }
        assert!(c.on_ack_timer_v(&cat).is_empty());
        assert!(c.on_vote_timer_v().is_empty());
    }
}
