//! Criterion microbenches for the protocol engines (B1–B3): participant
//! message handling, coordinator vote/ack processing, and the TP1/TP2
//! phase-2 rule evaluation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use qbc_core::rules::{phase2, StateView, TerminationKind};
use qbc_core::{
    Coordinator, LocalState, Msg, Participant, ParticipantConfig, ProtocolKind, TxnId, TxnSpec,
    WriteSet,
};
use qbc_simnet::SiteId;
use qbc_votes::{Catalog, CatalogBuilder, ItemId, Version};

fn catalog(n_items: u32, copies: u32) -> Catalog {
    let mut b = CatalogBuilder::new();
    for i in 0..n_items {
        b = b.item(ItemId(i));
        for k in 0..copies {
            b = b.copy(SiteId((i * copies + k) % 16), 1);
        }
        b = b.majority();
    }
    b.build().unwrap()
}

fn spec(catalog: &Catalog, n_items: u32, protocol: ProtocolKind) -> std::sync::Arc<TxnSpec> {
    let ws = WriteSet::new((0..n_items).map(|i| (ItemId(i), i as i64)));
    std::sync::Arc::new(TxnSpec::from_catalog(
        TxnId(1),
        SiteId(0),
        ws,
        protocol,
        catalog,
    ))
}

fn bench_participant(c: &mut Criterion) {
    let cat = catalog(4, 4);
    let sp = spec(&cat, 4, ProtocolKind::QuorumCommit1);
    c.bench_function("participant/vote_req", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut p = Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default());
            out.clear();
            p.on_msg(
                SiteId(0),
                &Msg::VoteReq { spec: sp.clone() },
                Version(0),
                &mut out,
            );
            black_box(&out);
        })
    });
    c.bench_function("participant/full_commit_path", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            let mut p = Participant::new(SiteId(1), TxnId(1), ParticipantConfig::default());
            out.clear();
            p.on_msg(
                SiteId(0),
                &Msg::VoteReq { spec: sp.clone() },
                Version(0),
                &mut out,
            );
            p.on_msg(
                SiteId(0),
                &Msg::PrepareCommit {
                    txn: TxnId(1),
                    commit_version: Version(1),
                },
                Version(0),
                &mut out,
            );
            p.on_msg(
                SiteId(0),
                &Msg::Commit {
                    txn: TxnId(1),
                    commit_version: Version(1),
                },
                Version(0),
                &mut out,
            );
            black_box(&out);
        })
    });
}

fn bench_coordinator(c: &mut Criterion) {
    let cat = catalog(4, 4);
    for protocol in [
        ProtocolKind::TwoPhase,
        ProtocolKind::ThreePhase,
        ProtocolKind::QuorumCommit1,
        ProtocolKind::QuorumCommit2,
    ] {
        let sp = spec(&cat, 4, protocol);
        c.bench_function(&format!("coordinator/all_votes/{}", protocol.name()), |b| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut coord = Coordinator::new(sp.clone(), None);
                out.clear();
                coord.start(&mut out);
                let participants: Vec<SiteId> = sp.participants.iter().copied().collect();
                for &s in &participants {
                    coord.on_vote(s, true, Version(0), &cat, &mut out);
                }
                for &s in &participants {
                    coord.on_pc_ack(s, &cat, &mut out);
                }
                black_box(&out);
            })
        });
    }
}

fn bench_rules(c: &mut Criterion) {
    for (n_items, copies) in [(2u32, 4u32), (8, 4), (16, 8)] {
        let cat = catalog(n_items, copies);
        let sp = spec(&cat, n_items, ProtocolKind::QuorumCommit1);
        let view = StateView::from_pairs(sp.participants.iter().enumerate().map(|(i, &s)| {
            (
                s,
                if i % 3 == 0 {
                    LocalState::PreCommit
                } else {
                    LocalState::Wait
                },
            )
        }));
        for kind in [TerminationKind::Tp1, TerminationKind::Tp2] {
            c.bench_function(
                &format!("rules/phase2/{}/{n_items}x{copies}", kind.name()),
                |b| b.iter(|| black_box(phase2(&kind, &cat, &sp, &view))),
            );
        }
    }
}

criterion_group!(benches, bench_participant, bench_coordinator, bench_rules);
criterion_main!(benches);
