//! Stand-alone probes of single layers: the log device under `FileWal`
//! and the client wire codec.

use crate::stats;
use crate::workload::Op;
use qbc_core::{Decision, TxnId};
use qbc_reactor::{Reply, Request};
use qbc_storage::{FileWal, FileWalConfig, WalBackend, WalCodec};
use qbc_votes::Version;
use std::path::Path;
use std::time::Instant;

/// A log record of a typical size for the probe.
struct ProbeRecord(Vec<u8>);

impl WalCodec for ProbeRecord {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(ProbeRecord(bytes.to_vec()))
    }
}

/// Bytes per probe record, about one encoded protocol record.
const PROBE_RECORD_BYTES: usize = 48;

/// Times `n` single-record `FileWal` append+force calls (each one
/// `fdatasync`) in `dir`; returns `(p50, p99)` in microseconds.
pub fn fsync_us(dir: &Path, n: usize) -> Result<(f64, f64), String> {
    let mut wal: FileWal<ProbeRecord> =
        FileWal::open(FileWalConfig::new(dir)).map_err(|e| format!("fsync probe: {e}"))?;
    let mut samples: Vec<f64> = (0..n)
        .map(|i| {
            let record = ProbeRecord(vec![i as u8; PROBE_RECORD_BYTES]);
            let t = Instant::now();
            wal.append(record);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::p50_p99(&mut samples).ok_or_else(|| "fsync probe: no samples".to_string())
}

/// Encodes and decodes each operation's request and a matching reply,
/// `passes` times over `ops`; returns `(bytes per op, ns per op)`.
pub fn wire_codec(ops: &[Op], passes: usize) -> (f64, f64) {
    let messages: Vec<(Request, Reply)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let session = i as u64 + 1;
            match op {
                Op::Write(writes) => (
                    Request::Submit {
                        session,
                        writes: writes.clone(),
                    },
                    Reply::Decided {
                        session,
                        txn: TxnId(session),
                        decision: Decision::Commit,
                        commit_version: Some(Version(session)),
                    },
                ),
                Op::Read(item) => (
                    Request::SnapRead {
                        session,
                        item: *item,
                    },
                    Reply::SnapRead {
                        session,
                        value: Some((Version(session), session as i64)),
                    },
                ),
            }
        })
        .collect();
    let mut buf = Vec::with_capacity(256);
    let mut bytes = 0usize;
    let t = Instant::now();
    for _ in 0..passes {
        for (req, rep) in &messages {
            buf.clear();
            req.encode_into(&mut buf);
            bytes += buf.len();
            std::hint::black_box(Request::decode(std::hint::black_box(&buf)));
            buf.clear();
            rep.encode_into(&mut buf);
            bytes += buf.len();
            std::hint::black_box(Reply::decode(std::hint::black_box(&buf)));
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    let n = (messages.len() * passes).max(1) as f64;
    (bytes as f64 / n, ns / n)
}
