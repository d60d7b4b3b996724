//! `fork_invoke`: the fuzzer / fork-server / serverless pattern. A parent
//! holds a large populated anonymous region; each invocation forks it with
//! On-demand-fork, does a little private work in the child, and exits. One
//! invocation at a time, on one thread, so every kernel counter repeats
//! exactly per invocation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use odf_core::{ForkPolicy, Kernel, Process};

use crate::oracle::{child_word, pattern};
use crate::rng::Rng;
use crate::stats::{self, median, sorted, OpLog, Tracer};
use crate::{kernel_counters, layer_summary, Args, Outcome, Round, Values, ROUNDS};

/// The parent's populated region.
const REGION: u64 = 1 << 30;
/// Child writes land in distinct ranges of this size, so each one first
/// copies a shared last-level table, then the data page.
const RANGE: u64 = 2 << 20;
const WRITES: usize = 16;
const READS: usize = 64;
/// Written after `mmap`, so every page is a demand-zero fault.
const SCRATCH: usize = 64 << 10;
/// Invocations per statistics window: about 0.3 s.
const WINDOW: usize = 250;
/// Classic forks of the final parent in the traced run (a reference rung).
const CLASSIC_FORKS: usize = 5;

/// The forking parent and the machine it runs on.
pub(crate) struct Parent {
    kernel: Arc<Kernel>,
    proc: Process,
    base: u64,
    len: u64,
}

impl Parent {
    /// Boots a machine and populates `len` bytes with [`pattern`] words.
    pub(crate) fn new(len: u64) -> Result<Parent, String> {
        assert!(len.is_multiple_of(RANGE) && len / RANGE >= WRITES as u64);
        let kernel = Kernel::new(len + len / 64 + (64 << 20));
        let proc = kernel.spawn().map_err(|e| format!("spawn: {e}"))?;
        let base = proc.mmap_anon(len).map_err(|e| format!("mmap: {e}"))?;
        let mut chunk = vec![0u8; RANGE as usize];
        for start in (base..base + len).step_by(RANGE as usize) {
            for (i, word) in chunk.chunks_exact_mut(8).enumerate() {
                word.copy_from_slice(&pattern(start + 8 * i as u64).to_le_bytes());
            }
            proc.write(start, &chunk)
                .map_err(|e| format!("populate: {e}"))?;
        }
        Ok(Parent {
            kernel,
            proc,
            base,
            len,
        })
    }
}

/// Per-run invocation state: the seeded stream and reused buffers.
pub(crate) struct Invoker {
    rng: Rng,
    ranges: Vec<u64>,
    writes: Vec<(u64, u64)>,
    scratch: Vec<u8>,
}

impl Invoker {
    /// The input stream of `round` of a run seeded `seed`.
    pub(crate) fn new(seed: u64, round: u64, parent: &Parent) -> Invoker {
        let mut rng = Rng::new(seed, round);
        let scratch = (0..SCRATCH).map(|_| rng.next_u64() as u8 | 1).collect();
        Invoker {
            rng,
            ranges: (0..parent.len / RANGE).collect(),
            writes: Vec::with_capacity(WRITES),
            scratch,
        }
    }
}

/// Runs invocation `op`: fork, 16 writes in distinct 2 MiB ranges, 64
/// reads, a 64 KiB scratch `mmap` written in full, exit. Returns its
/// latency, or the first check it failed: a child read that is not the
/// parent's pattern (or the child's own write), or a parent word the
/// child's write changed.
pub(crate) fn invoke(
    parent: &Parent,
    inv: &mut Invoker,
    tr: &mut Tracer,
    op: u64,
) -> Result<u64, String> {
    let Invoker {
        rng,
        ranges,
        writes,
        scratch,
    } = inv;
    let start = tr.now();
    let root = tr.open("invoke", op, 0);
    let child = tr
        .span("fork_with", op, root, || {
            parent.proc.fork_with(ForkPolicy::OnDemand)
        })
        .map_err(|e| format!("fork: {e}"))?;
    writes.clear();
    for k in 0..WRITES {
        let pick = k + rng.below((ranges.len() - k) as u64) as usize;
        ranges.swap(k, pick);
        let addr = parent.base + ranges[k] * RANGE + rng.below(RANGE / 8) * 8;
        let value = rng.next_u64();
        tr.span("write_u64", op, root, || child.write_u64(addr, value))
            .map_err(|e| format!("child write: {e}"))?;
        writes.push((addr, value));
    }
    let mut bad = None;
    for _ in 0..READS {
        let addr = parent.base + rng.below(parent.len / 8) * 8;
        let got = tr
            .span("read_u64", op, root, || child.read_u64(addr))
            .map_err(|e| format!("child read: {e}"))?;
        if got != child_word(addr, writes) && bad.is_none() {
            bad = Some(format!(
                "child read {got:#x} at {addr:#x}, not the parent's pattern"
            ));
        }
    }
    let area = tr
        .span("mmap_anon", op, root, || child.mmap_anon(SCRATCH as u64))
        .map_err(|e| format!("child mmap: {e}"))?;
    tr.span("write", op, root, || child.write(area, scratch))
        .map_err(|e| format!("child scratch write: {e}"))?;
    tr.span("exit", op, root, || child.exit());
    let end = tr.now();
    tr.close(root);
    if let Some(e) = bad {
        return Err(e);
    }
    check_parent(&parent.proc, writes)?;
    Ok(end - start)
}

/// Whether the parent still holds its pattern where the child wrote.
fn check_parent(proc: &Process, writes: &[(u64, u64)]) -> Result<(), String> {
    for &(addr, _) in writes {
        let word = proc
            .read_u64(addr)
            .map_err(|e| format!("parent read: {e}"))?;
        if word != pattern(addr) {
            return Err(format!("parent word at {addr:#x} changed by its child"));
        }
    }
    Ok(())
}

/// What one timed window of invocations measured.
struct Window {
    log: OpLog,
    failed: u64,
    first_error: Option<String>,
    wall_ns: u64,
}

impl Window {
    fn ops_per_s(&self) -> f64 {
        self.log.len() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Invokes back to back for `dur`. A failed invocation counts as missing
/// every latency limit.
fn window(
    parent: &Parent,
    inv: &mut Invoker,
    tr: &mut Tracer,
    dur: Duration,
    op: &mut u64,
) -> Window {
    let start = tr.now();
    let mut w = Window {
        log: OpLog::new(WINDOW, start),
        failed: 0,
        first_error: None,
        wall_ns: 0,
    };
    let end = start + dur.as_nanos() as u64;
    while tr.now() < end {
        *op += 1;
        match invoke(parent, inv, tr, *op) {
            Ok(ns) => w.log.push(ns, tr.now()),
            Err(e) => {
                w.failed += 1;
                w.log.push(u64::MAX, tr.now());
                w.first_error.get_or_insert(e);
            }
        }
    }
    w.wall_ns = tr.now() - start;
    w
}

pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut op = 0;
    if !args.trace {
        let mut rounds = Vec::new();
        for round in 0..ROUNDS {
            let t = Instant::now();
            let parent = Parent::new(REGION)?;
            let setup_s = t.elapsed().as_secs_f64();
            let mut inv = Invoker::new(args.seed, round, &parent);
            let mut tr = Tracer::new(Instant::now());
            let free_before = parent.kernel.free_bytes();
            let dur = args.duration() / ROUNDS as u32;
            let w = window(&parent, &mut inv, &mut tr, dur, &mut op);
            book(&parent, free_before, &w, &mut out);
            rounds.push(Round {
                setup_s,
                log: w.log,
                peak_rss_mib: stats::peak_rss_mib(),
            });
        }
        out.values = Values::end_to_end(&rounds);
        return Ok(out);
    }
    let parent = Parent::new(REGION)?;
    let mut inv = Invoker::new(args.seed, 0, &parent);
    let mut tr = Tracer::new(Instant::now());
    let free_before = parent.kernel.free_bytes();
    let half = args.duration() / 2;
    let untraced = window(&parent, &mut inv, &mut tr, half, &mut op);
    let before = parent.kernel.stats();
    odf_trace::clear();
    odf_trace::set_enabled(true);
    tr.set_on(true);
    let traced = window(&parent, &mut inv, &mut tr, half, &mut op);
    tr.set_on(false);
    odf_trace::set_enabled(false);
    let delta = parent.kernel.stats() - before;
    let v = &mut out.values;
    v.set(
        "trace.overhead_frac",
        1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    );
    let in_system: u64 = traced
        .log
        .latencies()
        .iter()
        .filter(|&&n| n != u64::MAX)
        .sum();
    v.set(
        "loadgen.busy_frac",
        1.0 - in_system as f64 / traced.wall_ns as f64,
    );
    let us = |name: &str, q: f64| span_quantile(&tr, name, q).map(|ns| ns / 1e3);
    v.opt("vm.fork_us.p50", us("fork_with", 0.5));
    v.opt("vm.fork_us.p99", us("fork_with", 0.99));
    v.opt("vm.child_write_us.p50", us("write_u64", 0.5));
    v.opt("vm.child_read_ns.p50", span_quantile(&tr, "read_u64", 0.5));
    v.opt("vm.exit_us.p50", us("exit", 0.5));
    layer_summary(v);
    kernel_counters(v, &delta, traced.log.len() as u64);
    v.set(
        "vm.read_u64_ns",
        read_rung_at(&parent.proc, &mut inv.rng, &[(parent.base, parent.len)])?,
    );
    v.set("vm.fork_classic_us.p50", classic_rung_of(&parent.proc)?);
    v.set("vm.mem_used_mib", mem_used_mib(&parent.kernel));
    out.notes.push(format!(
        "tracing: {:.1} invocations/s untraced, {:.1} traced",
        untraced.ops_per_s(),
        traced.ops_per_s()
    ));
    for w in [&untraced, &traced] {
        book(&parent, free_before, w, &mut out);
    }
    out.spans = Some(tr);
    Ok(out)
}

/// Books a window's checked invocations, and checks that every frame a
/// child took came back when it exited.
fn book(parent: &Parent, free_before: u64, w: &Window, out: &mut Outcome) {
    out.checked(w.log.len() as u64, w.failed, &w.first_error);
    let free_after = parent.kernel.free_bytes();
    let leak = (free_after != free_before).then(|| {
        format!("free memory {free_before} B before the invocations, {free_after} B after")
    });
    out.checked(1, u64::from(leak.is_some()), &leak);
}

/// The `q`-quantile (a median when `q` is 0.5) of the spans named `name`,
/// in ns; tails follow the ten-beyond rule.
pub(crate) fn span_quantile(tr: &Tracer, name: &str, q: f64) -> Option<f64> {
    let d = tr.durations(name);
    let v = if q == 0.5 {
        median(&d)
    } else {
        crate::stats::tail(&d, q)
    };
    v.map(|ns| ns as f64)
}

/// Simulated memory in use, in MiB.
pub(crate) fn mem_used_mib(kernel: &Kernel) -> f64 {
    (kernel.total_bytes() - kernel.free_bytes()) as f64 / f64::from(1 << 20)
}

/// Median ns of one resident `read_u64` at a random word of `proc` in
/// `[base, base + len)`, timed in batches of 64.
pub(crate) fn read_rung_at(
    proc: &Process,
    rng: &mut Rng,
    spans: &[(u64, u64)],
) -> Result<f64, String> {
    const BATCH: u64 = 64;
    let mut per_read = Vec::with_capacity(256);
    for _ in 0..256 {
        let addrs: Vec<u64> = (0..BATCH)
            .map(|_| {
                let (base, len) = spans[rng.below(spans.len() as u64) as usize];
                base + rng.below(len / 8) * 8
            })
            .collect();
        let t = Instant::now();
        for &a in &addrs {
            std::hint::black_box(proc.read_u64(a).map_err(|e| format!("rung read: {e}"))?);
        }
        per_read.push(t.elapsed().as_nanos() as u64 / BATCH);
    }
    Ok(median(sorted(&mut per_read)).expect("samples") as f64)
}

/// Median µs of a Classic fork of `proc` (the child exits untimed).
pub(crate) fn classic_rung_of(proc: &Process) -> Result<f64, String> {
    let mut us = Vec::with_capacity(CLASSIC_FORKS);
    for _ in 0..CLASSIC_FORKS {
        let t = Instant::now();
        let child = proc
            .fork_with(ForkPolicy::Classic)
            .map_err(|e| format!("classic fork: {e}"))?;
        us.push(t.elapsed().as_nanos() as u64);
        child.exit();
    }
    Ok(median(sorted(&mut us)).expect("samples") as f64 / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Parent {
        Parent::new(16 * RANGE).expect("parent")
    }

    #[test]
    fn invocations_pass_and_return_every_frame() {
        let parent = small();
        let mut inv = Invoker::new(3, 0, &parent);
        let mut tr = Tracer::new(Instant::now());
        tr.set_on(true);
        let free = parent.kernel.free_bytes();
        for op in 1..=4 {
            invoke(&parent, &mut inv, &mut tr, op).expect("invocation");
        }
        assert_eq!(parent.kernel.free_bytes(), free);
        assert_eq!(tr.durations("write_u64").len(), 4 * WRITES);
        assert_eq!(tr.durations("read_u64").len(), 4 * READS);
    }

    #[test]
    fn per_invocation_counters_repeat_exactly() {
        let parent = small();
        let mut inv = Invoker::new(5, 0, &parent);
        let mut tr = Tracer::new(Instant::now());
        invoke(&parent, &mut inv, &mut tr, 1).expect("warm");
        let per_op = |inv: &mut Invoker, tr: &mut Tracer, op| {
            let before = parent.kernel.stats();
            invoke(&parent, inv, tr, op).expect("invocation");
            let d = parent.kernel.stats() - before;
            (
                d.vm.faults,
                d.vm.cow_data_copies,
                d.vm.cow_table_copies,
                d.pool.allocs,
            )
        };
        let first = per_op(&mut inv, &mut tr, 2);
        assert_eq!(first.2, WRITES as u64, "one table copy per write range");
        assert_eq!(per_op(&mut inv, &mut tr, 3), first);
    }

    #[test]
    fn stale_parent_words_are_caught() {
        let parent = small();
        let mut inv = Invoker::new(9, 0, &parent);
        let mut tr = Tracer::new(Instant::now());
        invoke(&parent, &mut inv, &mut tr, 1).expect("clean invocation");
        // A child write that leaked into the parent.
        let (addr, value) = inv.writes[0];
        parent.proc.write_u64(addr, value).expect("plant");
        assert!(check_parent(&parent.proc, &inv.writes).is_err());
        // A parent whose pattern went stale before the fork: every child
        // read sees zeros.
        let zeros = vec![0u8; RANGE as usize];
        for start in (parent.base..parent.base + parent.len).step_by(RANGE as usize) {
            parent.proc.write(start, &zeros).expect("plant");
        }
        let err = invoke(&parent, &mut inv, &mut tr, 2).unwrap_err();
        assert!(err.contains("child read"), "{err}");
    }
}
