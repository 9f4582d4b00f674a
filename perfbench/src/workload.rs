//! The four workloads and their seeded traffic.
//!
//! Every workload runs QC2 (the paper's protocol) on 2 shards × 3
//! sites, r = w = 2, with 65,536 items per shard; every other cluster
//! and reactor setting keeps its default, so a change of default is
//! measured with its new value. No message delay is injected: sites
//! exchange messages through in-process mailboxes.

use qbc_cluster::{ClusterConfig, ReactorConfig};
use qbc_core::ProtocolKind;
use qbc_simnet::{Duration, SiteId};
use qbc_votes::ItemId;
use std::path::Path;

/// Items per shard.
pub const ITEMS_PER_SHARD: u32 = 65_536;
/// Shards in the cluster.
pub const SHARDS: u32 = 2;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-item uniform writes, in-memory WAL.
    WritesMem,
    /// The same traffic with every force paying `fdatasync`.
    WritesDurable,
    /// Snapshot reads, skewed writes and cross-shard writes.
    Mixed,
    /// `writes_mem` traffic with one site of shard 0 killed mid-phase.
    Failover,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WritesMem,
        Workload::WritesDurable,
        Workload::Mixed,
        Workload::Failover,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WritesMem => "writes_mem",
            Workload::WritesDurable => "writes_durable",
            Workload::Mixed => "mixed",
            Workload::Failover => "failover",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cluster shape for this workload; `wal_dir` is used only by
    /// `writes_durable`.
    pub fn cluster_config(self, wal_dir: &Path) -> ClusterConfig {
        let mut cfg = ClusterConfig {
            shards: SHARDS,
            sites_per_shard: 3,
            replication: 3,
            read_quorum: 2,
            write_quorum: 2,
            items_per_shard: ITEMS_PER_SHARD,
            protocol: ProtocolKind::QuorumCommit2,
            // Long enough that a saturation backlog never trips a vote
            // timer; `failover` shortens it so termination is quick.
            t_bound: Duration(2_000),
            ..ClusterConfig::default()
        };
        match self {
            Workload::WritesMem => {}
            Workload::WritesDurable => {
                cfg = cfg.with_wal_dir(wal_dir);
                cfg.wal_fsync = true;
            }
            Workload::Mixed => {
                let retention = ClusterConfig::default().version_retention;
                cfg = cfg.with_snapshot_reads(retention);
            }
            Workload::Failover => cfg.t_bound = Duration(50),
        }
        cfg
    }

    /// Reactor tuning: defaults, except that the client pool has at
    /// most one connection per processor.
    pub fn reactor_config(self) -> ReactorConfig {
        let default = ReactorConfig::default();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        ReactorConfig {
            client_conns: default.client_conns.min(nproc),
            ..default
        }
    }

    /// The phases a run of about `seconds` seconds makes. Phase sizes
    /// are fixed per workload, since tail latency depends on how many
    /// sessions a cluster has seen; a longer run uses more clusters.
    pub fn plan(self, seconds: u64) -> Plan {
        let (paced_rate, paced_sessions, burst_sessions) = match self {
            Workload::WritesMem => (10_000.0, 15_000, 8_000),
            Workload::WritesDurable => (300.0, 400, 1_000),
            Workload::Mixed => (8_000.0, 12_000, 8_000),
            Workload::Failover => (5_000.0, 7_500, 2_000),
        };
        Plan {
            clusters: (seconds as usize / SECONDS_PER_CLUSTER).max(1),
            paced_rate,
            paced_sessions,
            warmup_sessions: paced_sessions / 10,
            burst_sessions,
            kill_at: (self == Workload::Failover).then_some((burst_sessions / 2, SiteId(0))),
        }
    }

    /// Draws the workload's operations from `seed`: for each cluster in
    /// turn, its paced sessions and then its saturation bursts. Every
    /// write value is unique, so a value read back identifies the write
    /// that produced it.
    pub fn ops(self, seed: u64, plan: &Plan) -> Vec<Op> {
        let n = plan.clusters * plan.ops_per_cluster();
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0000_0000_0000);
        let zipf = (self == Workload::Mixed).then(|| Zipf::new(ITEMS_PER_SHARD, ZIPF_S));
        let hot_stride = rng.next() | 1;
        let skewed = |rng: &mut SplitMix64, shard: u32| {
            let rank = zipf.as_ref().expect("mixed workload").sample(rng);
            let offset = (rank as u64).wrapping_mul(hot_stride) as u32 % ITEMS_PER_SHARD;
            ItemId(shard * ITEMS_PER_SHARD + offset)
        };
        (0..n)
            .map(|i| {
                let value = i as i64 + 1;
                let uniform = |rng: &mut SplitMix64| {
                    ItemId((rng.next() % (SHARDS * ITEMS_PER_SHARD) as u64) as u32)
                };
                if self != Workload::Mixed {
                    return Op::Write(vec![(uniform(&mut rng), value)]);
                }
                match rng.next() % 100 {
                    0..=74 => Op::Read(uniform(&mut rng)),
                    75..=94 => {
                        let shard = (rng.next() % SHARDS as u64) as u32;
                        Op::Write(vec![(skewed(&mut rng, shard), value)])
                    }
                    _ => Op::Write(vec![
                        (skewed(&mut rng, 0), value),
                        (skewed(&mut rng, 1), value),
                    ]),
                }
            })
            .collect()
    }
}

/// Saturation bursts per measured cluster.
pub const BURSTS: usize = 2;
/// Spawn-only clusters timed for `setup_s` besides the measured ones.
pub const SETUP_EXTRA: usize = 2;

/// Run time one measured cluster accounts for.
const SECONDS_PER_CLUSTER: usize = 3;

/// Zipf exponent of `mixed`'s write keys: Σp² ≈ 0.012 over 65,536
/// items, so a few percent of paced writes meet a held lock.
const ZIPF_S: f64 = 1.0;

/// One client operation.
#[derive(Clone, Debug)]
pub enum Op {
    /// A write transaction over these items.
    Write(Vec<(ItemId, i64)>),
    /// A snapshot read of one item.
    Read(ItemId),
}

/// Phase sizes of one run.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Fresh clusters per run; each runs both phases.
    pub clusters: usize,
    /// Arrival rate of the paced phase, sessions per second.
    pub paced_rate: f64,
    /// Sessions in each cluster's paced phase (warm-up included).
    pub paced_sessions: usize,
    /// Leading paced sessions excluded from latency figures.
    pub warmup_sessions: usize,
    /// Sessions offered at once in each burst.
    pub burst_sessions: usize,
    /// Kill this site just before the given session of the first burst.
    /// A cluster with a kill runs its bursts first, so the kill lands
    /// while about a thousand transactions are in flight (a third of
    /// shard 0's coordinated by the victim, so the survivors' termination
    /// protocol runs) and the whole paced phase then runs during the
    /// fault. At the paced rate alone fewer than one transaction is in
    /// flight, and a kill there exercises only vote timeouts.
    pub kill_at: Option<(usize, SiteId)>,
}

impl Plan {
    /// Operations one cluster is sent.
    pub fn ops_per_cluster(&self) -> usize {
        self.paced_sessions + BURSTS * self.burst_sessions
    }
}

/// SplitMix64: small, seedable, and the same stream on every platform.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` by inversion of the cumulative table.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` has weight `1 / (k + 1)^s`.
    pub fn new(n: u32, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / f64::from(k + 1).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> u32 {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_a_function_of_the_seed() {
        let plan = Workload::Mixed.plan(10);
        let a = Workload::Mixed.ops(7, &plan);
        let b = Workload::Mixed.ops(7, &plan);
        let c = Workload::Mixed.ops(8, &plan);
        let key = |ops: &[Op]| format!("{ops:?}");
        assert_eq!(key(&a), key(&b));
        assert_ne!(key(&a), key(&c));
        assert_eq!(a.len(), plan.clusters * plan.ops_per_cluster());
    }

    #[test]
    fn uniform_keys_cover_both_shards() {
        let plan = Workload::WritesMem.plan(10);
        let ops = Workload::WritesMem.ops(3, &plan);
        let on_shard1 = ops
            .iter()
            .filter(|op| matches!(op, Op::Write(w) if w[0].0 .0 >= ITEMS_PER_SHARD))
            .count();
        let share = on_shard1 as f64 / ops.len() as f64;
        assert!((0.45..0.55).contains(&share), "shard 1 share {share}");
    }

    #[test]
    fn mixed_is_mostly_reads_with_some_cross_shard_writes() {
        let plan = Workload::Mixed.plan(10);
        let ops = Workload::Mixed.ops(5, &plan);
        let reads = ops.iter().filter(|op| matches!(op, Op::Read(_))).count();
        let cross = ops
            .iter()
            .filter(|op| matches!(op, Op::Write(w) if w.len() == 2))
            .count();
        let n = ops.len() as f64;
        assert!((0.70..0.80).contains(&(reads as f64 / n)));
        assert!((0.03..0.07).contains(&(cross as f64 / n)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SplitMix64::new(1);
        let draws: Vec<u32> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        let top = draws.iter().filter(|&&r| r == 0).count();
        // P(rank 0) = 1 / H(1000) ≈ 0.134.
        assert!((1100..1600).contains(&top), "rank 0 drawn {top} times");
        assert!(draws.iter().all(|&r| r < 1000));
    }
}
