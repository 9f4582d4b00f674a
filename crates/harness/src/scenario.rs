//! Declarative scenarios: cluster + workload + failure schedule.

use qbc_core::{Decision, FaultyMode, LocalState, ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_db::{build_cluster, SiteNode};
use qbc_simnet::{DelayModel, Duration, Sim, SimConfig, SiteId, Time};
use qbc_votes::Catalog;
use std::collections::{BTreeMap, BTreeSet};

/// A fault injected at a point in virtual time.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Crash a site (volatile state lost).
    Crash(SiteId),
    /// Recover a crashed site (log replayed).
    Recover(SiteId),
    /// Partition the network into components.
    Partition(Vec<Vec<SiteId>>),
    /// Heal all partitions.
    Heal,
    /// Block the directed link.
    BlockLink(SiteId, SiteId),
    /// Unblock the directed link.
    UnblockLink(SiteId, SiteId),
    /// Set random message-loss probability.
    SetLoss(f64),
}

/// A client transaction submission.
#[derive(Clone, Debug)]
pub struct TxnSubmission {
    /// When the client submits.
    pub at: Time,
    /// The coordinating site.
    pub site: SiteId,
    /// Transaction id (unique per scenario).
    pub txn: TxnId,
    /// Items and new values.
    pub writeset: WriteSet,
    /// Protocol to run.
    pub protocol: ProtocolKind,
}

/// A complete, reproducible experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name (reports).
    pub name: String,
    /// Replication catalog.
    pub catalog: Catalog,
    /// All sites (must cover catalog placement).
    pub sites: Vec<SiteId>,
    /// RNG seed.
    pub seed: u64,
    /// Longest end-to-end delay `T`.
    pub t_bound: Duration,
    /// Minimum message delay.
    pub min_delay: Duration,
    /// Site-vote parameters for Skeen `[16]`.
    pub site_votes: Option<SiteVotes>,
    /// Example 3 fault injection.
    pub faulty: FaultyMode,
    /// Keep retrying blocked transactions.
    pub retry_blocked: bool,
    /// Scripted no-votes: site → transactions it refuses.
    pub vote_no: BTreeMap<SiteId, BTreeSet<TxnId>>,
    /// Transactions to run.
    pub txns: Vec<TxnSubmission>,
    /// Failure schedule.
    pub nemesis: Vec<(Time, Fault)>,
    /// Virtual time to run until.
    pub run_until: Time,
    /// Record the full trace (disable for big sweeps).
    pub record_trace: bool,
    /// Cap on termination rounds a site may initiate (see
    /// `NodeConfig::max_termination_rounds`).
    pub max_termination_rounds: u64,
}

impl Scenario {
    /// A scenario skeleton with conventional defaults (`T` = 10 ticks).
    pub fn new(name: impl Into<String>, catalog: Catalog, sites: Vec<SiteId>) -> Self {
        Scenario {
            name: name.into(),
            catalog,
            sites,
            seed: 0,
            t_bound: Duration(10),
            min_delay: Duration(2),
            site_votes: None,
            faulty: FaultyMode::Correct,
            retry_blocked: true,
            vote_no: BTreeMap::new(),
            txns: Vec::new(),
            nemesis: Vec::new(),
            run_until: Time(5_000),
            record_trace: true,
            max_termination_rounds: u64::MAX,
        }
    }

    /// Uses constant (deterministic) delays equal to `T` — the paper
    /// scenarios need exact timing.
    pub fn constant_delays(mut self) -> Self {
        self.min_delay = self.t_bound;
        self
    }

    /// Adds a transaction.
    pub fn submit(
        mut self,
        at: Time,
        site: SiteId,
        txn: u64,
        writeset: WriteSet,
        protocol: ProtocolKind,
    ) -> Self {
        self.txns.push(TxnSubmission {
            at,
            site,
            txn: TxnId(txn),
            writeset,
            protocol,
        });
        self
    }

    /// Adds a fault at a time.
    pub fn fault(mut self, at: Time, f: Fault) -> Self {
        self.nemesis.push((at, f));
        self
    }

    /// Builds and runs the simulation.
    pub fn run(&self) -> ScenarioOutcome {
        let site_votes = self.site_votes.clone();
        let faulty = self.faulty;
        let retry = self.retry_blocked;
        let max_rounds = self.max_termination_rounds;
        let vote_no = self.vote_no.clone();
        let nodes = build_cluster(
            self.sites.iter().copied(),
            &self.catalog,
            self.t_bound,
            |mut c| {
                c.faulty = faulty;
                c.retry_blocked = retry;
                c.max_termination_rounds = max_rounds;
                if let Some(sv) = &site_votes {
                    c = c.with_site_votes(sv.clone());
                }
                if let Some(nos) = vote_no.get(&c.site) {
                    for t in nos {
                        c = c.vote_no(*t);
                    }
                }
                c
            },
        );
        let mut sim = Sim::new(
            SimConfig {
                seed: self.seed,
                delay: DelayModel::uniform(self.min_delay, self.t_bound),
                record_trace: self.record_trace,
            },
            nodes,
        );
        for sub in &self.txns {
            let txn = sub.txn;
            let ws = sub.writeset.clone();
            let p = sub.protocol;
            sim.schedule_call(sub.at, sub.site, move |node: &mut SiteNode, ctx| {
                node.begin_transaction(ctx, txn, ws, p);
            });
        }
        for (at, f) in &self.nemesis {
            match f.clone() {
                Fault::Crash(s) => sim.schedule_crash(*at, s),
                Fault::Recover(s) => sim.schedule_recover(*at, s),
                Fault::Partition(c) => sim.schedule_partition(*at, c),
                Fault::Heal => sim.schedule_heal(*at),
                Fault::BlockLink(a, b) => sim.schedule_block_link(*at, a, b),
                Fault::UnblockLink(a, b) => sim.schedule_unblock_link(*at, a, b),
                Fault::SetLoss(p) => sim.schedule_loss(*at, p),
            }
        }
        sim.run_until(self.run_until);
        ScenarioOutcome {
            submissions: self.txns.clone(),
            catalog: self.catalog.clone(),
            sim,
        }
    }
}

/// The result of a scenario run: the frozen simulation plus derived
/// verdicts.
pub struct ScenarioOutcome {
    /// The transactions that were submitted.
    pub submissions: Vec<TxnSubmission>,
    /// The catalog the run used (defines participant sets).
    pub catalog: Catalog,
    /// The finished simulation (inspect nodes, stats, trace).
    pub sim: Sim<SiteNode>,
}

/// Per-transaction verdict across all sites.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnVerdict {
    /// Transaction.
    pub txn: TxnId,
    /// Sites that committed.
    pub committed: Vec<SiteId>,
    /// Sites that aborted.
    pub aborted: Vec<SiteId>,
    /// Participant sites with no decision.
    pub undecided: Vec<SiteId>,
    /// Participant sites currently flagged blocked.
    pub blocked: Vec<SiteId>,
    /// No site committed while another aborted.
    pub consistent: bool,
}

impl ScenarioOutcome {
    /// Consistency verdict for one transaction, over its *active
    /// participants*: sites holding a copy of some writeset item that
    /// currently have protocol state for the transaction. A crashed
    /// (not-yet-recovered) site has no state and is not counted — the
    /// paper's termination protocols terminate transactions "at all
    /// active participating sites". The submitting site is counted only
    /// if it holds copies (a pure coordinator, like Example 3's s1, is
    /// a client, not a participant).
    pub fn verdict(&self, txn: TxnId) -> TxnVerdict {
        let spec_participants: BTreeSet<SiteId> = self
            .submissions
            .iter()
            .find(|s| s.txn == txn)
            .map(|s| self.catalog.participants(s.writeset.items()))
            .unwrap_or_default();
        let participants: BTreeSet<SiteId> = self
            .sim
            .nodes()
            .filter(|(s, n)| n.known_txns().contains(&txn) && spec_participants.contains(s))
            .map(|(s, _)| s)
            .collect();
        let mut committed = Vec::new();
        let mut aborted = Vec::new();
        let mut undecided = Vec::new();
        let mut blocked = Vec::new();
        for &s in &participants {
            let n = self.sim.node(s);
            match n.decision(txn) {
                Some(Decision::Commit) => committed.push(s),
                Some(Decision::Abort) => aborted.push(s),
                None => undecided.push(s),
            }
            if n.is_blocked(txn) {
                blocked.push(s);
            }
        }
        let consistent = committed.is_empty() || aborted.is_empty();
        TxnVerdict {
            txn,
            committed,
            aborted,
            undecided,
            blocked,
            consistent,
        }
    }

    /// Verdicts for all submitted transactions.
    pub fn verdicts(&self) -> Vec<TxnVerdict> {
        self.submissions
            .iter()
            .map(|s| self.verdict(s.txn))
            .collect()
    }

    /// True when no transaction was terminated inconsistently and no
    /// engine-level violations were recorded.
    pub fn all_consistent(&self) -> bool {
        self.verdicts().iter().all(|v| v.consistent)
            && self.sim.nodes().all(|(_, n)| n.violations().is_empty())
    }

    /// Local participant states of a transaction at every live site.
    pub fn local_states(&self, txn: TxnId) -> BTreeMap<SiteId, LocalState> {
        self.sim
            .nodes()
            .filter_map(|(s, n)| n.local_state(txn).map(|st| (s, st)))
            .collect()
    }

    /// Commit latency of a transaction in virtual ticks: submission to
    /// the *last* participant decision (`None` if any participant is
    /// still undecided).
    pub fn latency(&self, txn: TxnId) -> Option<Duration> {
        let sub = self.submissions.iter().find(|s| s.txn == txn)?;
        let mut last = Time::ZERO;
        for (_, n) in self.sim.nodes() {
            if n.known_txns().contains(&txn) {
                match n.decided_at(txn) {
                    Some(t) => last = last.max(t),
                    None => return None,
                }
            }
        }
        Some(last.since(sub.at))
    }

    /// Commit latency measured at the coordinator only (the client's
    /// view).
    pub fn coordinator_latency(&self, txn: TxnId) -> Option<Duration> {
        let sub = self.submissions.iter().find(|s| s.txn == txn)?;
        let t = self.sim.node(sub.site).decided_at(txn)?;
        Some(t.since(sub.at))
    }

    /// Messages delivered during the run, by label.
    pub fn messages_by_label(&self) -> BTreeMap<&'static str, u64> {
        self.sim.stats().delivered_by_label()
    }

    /// The partition components of currently-up sites.
    pub fn live_components(&self) -> Vec<BTreeSet<SiteId>> {
        self.sim
            .topology()
            .components()
            .into_iter()
            .map(|c| {
                c.into_iter()
                    .filter(|&s| !self.sim.topology().is_down(s))
                    .collect::<BTreeSet<_>>()
            })
            .filter(|c: &BTreeSet<SiteId>| !c.is_empty())
            .collect()
    }

    /// Availability analysis at end time: which items are readable and
    /// writable in each live component, accounting for copies pinned by
    /// undecided transactions' locks.
    pub fn availability(&self, catalog: &Catalog) -> qbc_votes::AccessReport {
        let components = self.live_components();
        qbc_votes::analyze(catalog, &components, |site, item| {
            self.sim.node(site).is_item_locked(item)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qbc_simnet::sites;
    use qbc_votes::{CatalogBuilder, ItemId};

    fn catalog() -> Catalog {
        CatalogBuilder::new()
            .item(ItemId(0))
            .copies_at(sites(4))
            .quorums(2, 3)
            .build()
            .unwrap()
    }

    #[test]
    fn failure_free_scenario_commits_consistently() {
        let out = Scenario::new("smoke", catalog(), sites(4))
            .submit(
                Time(0),
                SiteId(0),
                1,
                WriteSet::new([(ItemId(0), 7)]),
                ProtocolKind::QuorumCommit2,
            )
            .run();
        let v = out.verdict(TxnId(1));
        assert!(v.consistent);
        assert_eq!(v.committed.len(), 4);
        assert!(out.all_consistent());
        assert!(out.latency(TxnId(1)).is_some());
        assert!(out.coordinator_latency(TxnId(1)).is_some());
        assert!(out.messages_by_label().contains_key("VOTE-REQ"));
    }

    #[test]
    fn verdict_reports_blocked_sites() {
        // 2PC with the coordinator cut off and crashed: classic block.
        let mut s = Scenario::new("block", catalog(), sites(4)).submit(
            Time(0),
            SiteId(0),
            1,
            WriteSet::new([(ItemId(0), 7)]),
            ProtocolKind::TwoPhase,
        );
        for k in 1..4 {
            s = s.fault(Time(11), Fault::BlockLink(SiteId(0), SiteId(k)));
        }
        let out = s.fault(Time(30), Fault::Crash(SiteId(0))).run();
        let v = out.verdict(TxnId(1));
        assert!(v.consistent, "blocked is not inconsistent");
        assert_eq!(v.committed.len() + v.aborted.len(), 0);
        assert!(!v.blocked.is_empty(), "cooperative termination blocks");
        // Availability: the single item is pinned everywhere.
        let report = out.availability(&catalog());
        assert_eq!(report.readable_pairs(), 0);
    }

    #[test]
    fn live_components_exclude_crashed_sites() {
        let out = Scenario::new("comp", catalog(), sites(4))
            .fault(
                Time(5),
                Fault::Partition(vec![vec![SiteId(0), SiteId(1)], vec![SiteId(2), SiteId(3)]]),
            )
            .fault(Time(6), Fault::Crash(SiteId(1)))
            .run();
        let comps = out.live_components();
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().any(|c| c.len() == 1 && c.contains(&SiteId(0))));
    }
}
