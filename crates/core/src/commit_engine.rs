//! The pluggable commit-engine abstraction.
//!
//! Every commit protocol in this repo is a sans-IO state machine that
//! consumes messages and timer expiries and returns [`Action`]s. This
//! module names that shape as a trait, so the five quorum-paper engines
//! (driven by [`Coordinator`] + [`Participant`]) and Gray & Lamport's
//! Paxos Commit ([`crate::paxos_commit::PaxosLeader`]) are peers: the
//! driver selects an engine by [`crate::types::ProtocolKind`] and talks
//! to it only through this interface. The trait requires
//! [`qbc_simnet::Fingerprint`], so any engine slots straight into the
//! model checker's visited-state hashing.
//!
//! The trait impls for [`Coordinator`] and [`Participant`] delegate to
//! the exact per-message methods the driver used to call directly —
//! the refactor is behavior-preserving by construction, and the golden
//! digests in `crates/cluster/tests/determinism.rs` pin that it stays
//! so.

use crate::actions::{Action, TimerKind};
use crate::coordinator::{CoordPhase, Coordinator};
use crate::messages::Msg;
use crate::participant::Participant;
use crate::types::{Decision, TxnId};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, Version};

/// Per-event context the driver supplies alongside each message or
/// timer: the replica catalog (quorum arithmetic) and the highest local
/// version among this site's copies of the transaction's writeset items
/// (reported in yes votes).
pub struct EngineCtx<'a> {
    /// The cluster's replica catalog.
    pub catalog: &'a Catalog,
    /// Highest local version among the site's writeset copies.
    pub local_max_version: Version,
}

/// One commit-protocol role (coordinator, participant, Paxos leader)
/// for one transaction, as a uniform message-in/actions-out machine.
///
/// Effects are appended to a caller-supplied scratch buffer rather than
/// returned in a fresh `Vec`: the driver recycles a small pool of
/// buffers, so the steady-state message path performs no allocation per
/// event. Engines only ever *push* — they must not read, clear, or
/// reorder what the caller already buffered.
pub trait CommitEngine: qbc_simnet::Fingerprint {
    /// The transaction this engine drives.
    fn txn(&self) -> TxnId;

    /// Kicks the engine off (no-op for purely reactive roles).
    fn start(&mut self, out: &mut Vec<Action>);

    /// Feeds one protocol message; appends the effects to `out`.
    fn on_msg(&mut self, from: SiteId, msg: &Msg, ctx: &EngineCtx<'_>, out: &mut Vec<Action>);

    /// Feeds one timer expiry; appends the effects to `out`.
    fn on_timer(&mut self, kind: TimerKind, ctx: &EngineCtx<'_>, out: &mut Vec<Action>);

    /// The irrevocable outcome, once this engine reached one.
    fn decision(&self) -> Option<Decision>;

    /// The commit version, once fixed.
    fn commit_version(&self) -> Option<Version>;

    /// The [`crate::log::LogRecord`] kinds this engine force-writes, by
    /// stable name — the durability contract an engine declares to the
    /// driver and the docs.
    fn log_record_kinds(&self) -> &'static [&'static str];
}

impl CommitEngine for Coordinator {
    fn txn(&self) -> TxnId {
        Coordinator::txn(self)
    }

    fn start(&mut self, out: &mut Vec<Action>) {
        Coordinator::start(self, out)
    }

    fn on_msg(&mut self, from: SiteId, msg: &Msg, ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match msg {
            Msg::Vote {
                yes, max_version, ..
            } => self.on_vote(from, *yes, *max_version, ctx.catalog, out),
            Msg::PcAck { .. } => self.on_pc_ack(from, ctx.catalog, out),
            Msg::XDecide {
                decision,
                commit_version,
                ..
            } => self.on_x_decide(*decision, *commit_version, out),
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: TimerKind, ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        match kind {
            TimerKind::VoteCollection { .. } => self.on_vote_timer(out),
            TimerKind::AckCollection { .. } => self.on_ack_timer(ctx.catalog, out),
            _ => {}
        }
    }

    fn decision(&self) -> Option<Decision> {
        match self.phase() {
            CoordPhase::Decided(d) => Some(d),
            _ => None,
        }
    }

    fn commit_version(&self) -> Option<Version> {
        Coordinator::commit_version(self)
    }

    fn log_record_kinds(&self) -> &'static [&'static str] {
        &["coordinator-start", "decided"]
    }
}

impl CommitEngine for Participant {
    fn txn(&self) -> TxnId {
        Participant::txn(self)
    }

    fn start(&mut self, _out: &mut Vec<Action>) {
        // participants are purely reactive
    }

    fn on_msg(&mut self, from: SiteId, msg: &Msg, ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        Participant::on_msg(self, from, msg, ctx.local_max_version, out)
    }

    fn on_timer(&mut self, kind: TimerKind, _ctx: &EngineCtx<'_>, out: &mut Vec<Action>) {
        if let TimerKind::CoordinatorWatch { .. } = kind {
            self.on_coordinator_silent(out)
        }
    }

    fn decision(&self) -> Option<Decision> {
        Participant::decision(self)
    }

    fn commit_version(&self) -> Option<Version> {
        Participant::commit_version(self)
    }

    fn log_record_kinds(&self) -> &'static [&'static str] {
        &["voted", "voted-no", "pre-commit", "pre-abort", "decided"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::ParticipantConfig;
    use crate::types::{ProtocolKind, TxnSpec, WriteSet};
    use qbc_votes::{CatalogBuilder, ItemId};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at([SiteId(0), SiteId(1), SiteId(2)])
            .quorums(2, 2)
            .build()
            .unwrap()
    }

    fn spec(protocol: ProtocolKind) -> Arc<TxnSpec> {
        Arc::new(TxnSpec {
            id: TxnId(1),
            coordinator: SiteId(0),
            writeset: WriteSet::new([(ItemId(0), 7)]),
            participants: [SiteId(0), SiteId(1), SiteId(2)].into(),
            protocol,
            parent: None,
        })
    }

    /// The trait path and the direct-method path must emit identical
    /// actions — the refactor's behavior-preservation contract, checked
    /// here message by message on a full 2PC run.
    #[test]
    fn trait_dispatch_matches_direct_calls_for_coordinator() {
        let cat = catalog();
        let ctx = EngineCtx {
            catalog: &cat,
            local_max_version: Version(0),
        };
        let mut direct = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        let mut via_trait = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct.start(&mut a);
        CommitEngine::start(&mut via_trait, &mut b);
        assert_eq!(a, b);
        for s in 0..3u32 {
            a.clear();
            b.clear();
            direct.on_vote(SiteId(s), true, Version(s as u64), &cat, &mut a);
            via_trait.on_msg(
                SiteId(s),
                &Msg::Vote {
                    txn: TxnId(1),
                    yes: true,
                    max_version: Version(s as u64),
                },
                &ctx,
                &mut b,
            );
            assert_eq!(a, b);
        }
        assert_eq!(CommitEngine::decision(&via_trait), Some(Decision::Commit));
        assert_eq!(CommitEngine::commit_version(&via_trait), Some(Version(3)));
    }

    #[test]
    fn trait_dispatch_matches_direct_calls_for_participant() {
        let ctx = EngineCtx {
            catalog: &catalog(),
            local_max_version: Version(5),
        };
        let mut direct = Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default());
        let mut via_trait = Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default());
        let req = Msg::VoteReq {
            spec: spec(ProtocolKind::QuorumCommit1),
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        direct.on_msg(SiteId(0), &req, Version(5), &mut a);
        CommitEngine::on_msg(&mut via_trait, SiteId(0), &req, &ctx, &mut b);
        assert_eq!(a, b);
        // The watchdog timer maps to the coordinator-silence event.
        a.clear();
        b.clear();
        direct.on_coordinator_silent(&mut a);
        via_trait.on_timer(TimerKind::CoordinatorWatch { txn: TxnId(1) }, &ctx, &mut b);
        assert_eq!(a, b);
        assert!(matches!(a[0], Action::RequestTermination { .. }));
    }

    #[test]
    fn engines_declare_their_log_records() {
        let c = Coordinator::new(spec(ProtocolKind::TwoPhase), None);
        assert!(c.log_record_kinds().contains(&"decided"));
        let p = Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default());
        assert!(p.log_record_kinds().contains(&"voted"));
    }
}
