//! E12 — Figs. 1, 2 and 9 regenerated as *executed* message sequence
//! charts: one failure-free transaction per protocol on four sites,
//! every delivered protocol message drawn in delivery order.

use qbc_core::{ProtocolKind, WriteSet};
use qbc_harness::msc::render_filtered;
use qbc_harness::scenario::Scenario;
use qbc_simnet::{sites, SiteId, Time};
use qbc_votes::{CatalogBuilder, ItemId};

const PROTO_LABELS: [&str; 9] = [
    "VOTE-REQ",
    "VOTE-YES",
    "VOTE-NO",
    "PREPARE-TO-COMMIT",
    "PC-ACK",
    "PREPARE-TO-ABORT",
    "PA-ACK",
    "COMMIT",
    "ABORT",
];

/// `variable_delays` staggers message arrivals (uniform `[2, T]`,
/// fixed seed) so the quorum protocols' early commit point — "the
/// coordinator can send out commit commands before all the PC-ACKs are
/// received" (Fig. 9) — becomes visible in the chart: COMMIT rows
/// appear before the final PC-ACK rows.
fn chart_for(protocol: ProtocolKind, variable_delays: bool) -> String {
    let catalog = CatalogBuilder::new()
        .item(ItemId(0))
        .copies_at(sites(4))
        .quorums(2, 3)
        .build()
        .unwrap();
    let mut s = Scenario::new(format!("fig/{}", protocol.name()), catalog, sites(4)).submit(
        Time(0),
        SiteId(0),
        1,
        WriteSet::new([(ItemId(0), 1)]),
        protocol,
    );
    if variable_delays {
        s.seed = 11;
    } else {
        s = s.constant_delays();
    }
    if protocol == ProtocolKind::SkeenQuorum {
        s.site_votes = Some(qbc_core::SiteVotes::uniform(sites(4), 3, 2));
    }
    s.run_until = Time(500);
    let out = s.run();
    render_filtered(out.sim.trace(), &sites(4), &PROTO_LABELS)
}

fn main() {
    println!("E12 — the protocol diagrams (Figs. 1, 2, 9), regenerated from runs");
    println!("(four sites, one item with copies everywhere, r=2, w=3, constant T)\n");
    for (p, variable, fig) in [
        (ProtocolKind::TwoPhase, false, "Fig. 1 — two-phase commit"),
        (
            ProtocolKind::ThreePhase,
            false,
            "Fig. 2 — three-phase commit",
        ),
        (
            ProtocolKind::QuorumCommit1,
            true,
            "Fig. 9 — quorum commit protocol 1 (commit at w(x) acks; staggered delays)",
        ),
        (
            ProtocolKind::QuorumCommit2,
            true,
            "Fig. 9 — quorum commit protocol 2 (commit at r(x) acks; staggered delays)",
        ),
    ] {
        println!("--- {fig} ---");
        println!("{}", chart_for(p, variable));
    }
    println!("note: s0 coordinates; its self-addressed messages are handled locally");
    println!("and do not appear on the wire — exactly as the paper draws them.");
}
