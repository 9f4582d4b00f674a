//! End-to-end commit benchmark (B7): one full failure-free transaction
//! through the simulator per iteration, for each protocol — the
//! wall-clock cost of the whole stack (network events, engines, locks,
//! WAL).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qbc_core::{ProtocolKind, SiteVotes, TxnId, WriteSet};
use qbc_db::{build_cluster, SiteNode};
use qbc_simnet::{sites, DelayModel, Duration, Sim, SimConfig, SiteId, Time};
use qbc_votes::{Catalog, CatalogBuilder, ItemId};

fn catalog(n: u32) -> Catalog {
    CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(n))
        .majority()
        .build()
        .unwrap()
}

fn run_one(protocol: ProtocolKind, n: u32, seed: u64) -> bool {
    let cat = catalog(n);
    let sv = SiteVotes::uniform(sites(n), n / 2 + 1, n / 2 + 1);
    let nodes = build_cluster(sites(n), &cat, Duration(10), |c| {
        if protocol == ProtocolKind::SkeenQuorum {
            c.with_site_votes(sv.clone())
        } else {
            c
        }
    });
    let mut sim: Sim<SiteNode> = Sim::new(
        SimConfig {
            seed,
            delay: DelayModel::uniform(Duration(1), Duration(10)),
            record_trace: false,
        },
        nodes,
    );
    sim.schedule_call(Time(0), SiteId(0), move |node, ctx| {
        node.begin_transaction(ctx, TxnId(1), WriteSet::new([(ItemId(0), 1)]), protocol);
    });
    sim.run_until(Time(1_000));
    sim.node(SiteId(0)).decision(TxnId(1)).is_some()
}

fn bench_commit(c: &mut Criterion) {
    for protocol in ProtocolKind::ALL {
        c.bench_function(&format!("commit/e2e_8sites/{}", protocol.name()), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_one(protocol, 8, seed))
            })
        });
    }
    for n in [4u32, 16, 32] {
        c.bench_function(&format!("commit/e2e_qc2_{n}sites"), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(run_one(ProtocolKind::QuorumCommit2, n, seed))
            })
        });
    }
}

criterion_group!(benches, bench_commit);
criterion_main!(benches);
