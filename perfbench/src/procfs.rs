//! Process and thread accounting read from `/proc`, so every layer is
//! measured from outside the program.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `/proc` CPU times (`USER_HZ`, 100 on every
/// mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in seconds from a `stat` line, plus the command name.
fn parse_stat(line: &str) -> Option<(String, f64)> {
    // The name sits in parentheses and may itself contain spaces or
    // parentheses; the fields after the last ')' are fixed.
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line.get(open + 1..close)?.to_string();
    let rest: Vec<&str> = line.get(close + 2..)?.split_whitespace().collect();
    // rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    let utime: f64 = rest.get(11)?.parse().ok()?;
    let stime: f64 = rest.get(12)?.parse().ok()?;
    Some((name, (utime + stime) / TICKS_PER_S))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time (user + system) of the whole process so far, seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID` (nanosecond resolution; the tick counts
/// in `/proc/self/stat` are too coarse for one saturation burst).
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU time of every live thread, keyed by thread id, with its name
/// from `stat`. The time comes from `schedstat` (nanoseconds) when the
/// kernel provides it, else from the tick counts in `stat`.
pub fn thread_cpu_s() -> BTreeMap<u64, (String, f64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
            continue;
        };
        let Some((name, ticks)) = fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|s| parse_stat(&s))
        else {
            continue;
        };
        let precise = fs::read_to_string(entry.path().join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
        out.insert(tid, (name, precise.map_or(ticks, |ns| ns as f64 / 1e9)));
    }
    out
}

/// CPU each thread used between two snapshots, summed by thread name
/// (a thread born in between counts from zero).
pub fn thread_cpu_delta(
    before: &BTreeMap<u64, (String, f64)>,
    after: &BTreeMap<u64, (String, f64)>,
) -> Vec<(String, f64)> {
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    for (tid, (name, cpu)) in after {
        let base = before.get(tid).map_or(0.0, |(_, c)| *c);
        *by_name.entry(name.clone()).or_insert(0.0) += cpu - base;
    }
    by_name.into_iter().collect()
}

/// One `key: value` field of a `/proc/self/*` file, as a number.
fn field(file: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(file).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Bytes this process caused to be sent to the storage layer.
pub fn write_bytes() -> u64 {
    field("/proc/self/io", "write_bytes").unwrap_or(0)
}

/// Peak resident set size (`VmHWM`), mebibytes.
pub fn peak_rss_mb() -> f64 {
    field("/proc/self/status", "VmHWM").unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_lines_parse_names_with_spaces_and_parens() {
        let line = "42 (qbc (x) y) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("qbc (x) y".to_string(), 3.0)));
    }

    #[test]
    fn this_process_is_visible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!thread_cpu_s().is_empty());
        let before = process_cpu_s();
        let spin = std::time::Instant::now();
        while spin.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::black_box(0u64);
        }
        assert!(process_cpu_s() > before);
    }

    #[test]
    fn deltas_sum_by_thread_name() {
        let t = |n: &str, c: f64| (n.to_string(), c);
        let before = BTreeMap::from([(1, t("a", 1.0)), (2, t("w", 2.0))]);
        let after = BTreeMap::from([(1, t("a", 1.5)), (2, t("w", 2.25)), (3, t("w", 1.0))]);
        assert_eq!(
            thread_cpu_delta(&before, &after),
            vec![t("a", 0.5), t("w", 1.25)]
        );
    }
}
