//! `kv_read` and `kv_snapshot`: a two-shard `PerCoreServer` driven over
//! RESP by one generator thread. The generator holds one connection per
//! shard and routes every key to its owner (the smart-client model), so no
//! request is redirected. Each connection runs a closed loop of pipelined
//! batches: the next batch leaves only after the previous one's replies
//! are all in.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odf_core::{ForkPolicy, Kernel};
use odf_kvstore::{encode_command, skip_reply, Connection, PerCoreConfig, PerCoreServer};

use crate::invoke::{classic_rung_of, mem_used_mib, read_rung_at};
use crate::oracle::{check_dump, check_get, key_bytes, value_into};
use crate::rng::{Rng, Zipf};
use crate::stats::{self, median, sorted, tail, OpLog, Tracer};
use crate::{kernel_counters, layer_summary, Args, Outcome, Round, Values, ROUNDS};

/// One shard (and worker) per core of the two-core reference host.
const SHARDS: usize = 2;
/// Requests per pipelined batch, per connection.
const DEPTH: usize = 16;
/// Requests in flight per shard while preloading.
const PRELOAD_WINDOW: usize = 256;
/// Requests per statistics window: 0.2 to 0.5 s.
const WINDOW: usize = 20_000;
/// Store operations timed per ladder rung in the traced run.
const RUNG_OPS: usize = 2_000;
const BGSAVE_ACK: &[u8] = b"+Background saving started\r\n";

/// One key-value workload's parameters.
pub(crate) struct KvSpec {
    /// Distinct keys (a power of two), all preloaded.
    keys: u32,
    value_len: usize,
    /// SETs per thousand requests; the rest are GETs.
    set_permille: u64,
    /// Zipfian skew of key popularity; uniform when `None`.
    zipf_theta: Option<f64>,
    /// Whether the generator keeps one BGSAVE in flight throughout.
    snapshots: bool,
    heap_per_shard: u64,
    /// Hash buckets per shard: twice the shard's keys, for short chains.
    buckets: u64,
    kernel_bytes: u64,
}

/// Read-mostly over a skewed 32k-key set of 64 B values: the RESP →
/// `Store` → simulated-access path, with almost no faults or forks.
pub(crate) const KV_READ: KvSpec = KvSpec {
    keys: 32 << 10,
    value_len: 64,
    set_permille: 50,
    zipf_theta: Some(0.99),
    snapshots: false,
    heap_per_shard: 16 << 20,
    buckets: 32 << 10,
    kernel_bytes: 128 << 20,
};

/// Write-heavy over 64k uniform keys of 1 KiB values (~130 MiB simulated)
/// under back-to-back BGSAVEs: every fork stalls both workers, and the
/// writes after it take the table-COW and data-COW faults.
pub(crate) const KV_SNAPSHOT: KvSpec = KvSpec {
    keys: 64 << 10,
    value_len: 1024,
    set_permille: 500,
    zipf_theta: None,
    snapshots: true,
    heap_per_shard: 96 << 20,
    buckets: 64 << 10,
    kernel_bytes: 512 << 20,
};

/// The keys, their owners, and each key's version history: the last
/// version sent and the last version whose SET was acknowledged.
struct Keyspace {
    keys: Vec<Vec<u8>>,
    shard: Vec<usize>,
    sent: Vec<u32>,
    acked: Vec<u32>,
}

impl Keyspace {
    fn new(spec: &KvSpec, server: &PerCoreServer) -> Keyspace {
        let keys: Vec<Vec<u8>> = (0..spec.keys).map(key_bytes).collect();
        let shard = keys.iter().map(|k| server.shard_for(k)).collect();
        Keyspace {
            keys,
            shard,
            sent: vec![0; spec.keys as usize],
            acked: vec![0; spec.keys as usize],
        }
    }
}

/// Draws key ids: a rank from the popularity distribution, scattered over
/// the key space by a fixed odd-multiplier permutation so hot keys land on
/// both shards. The permutation is not seeded: which keys are hot (and
/// where they sit in their hash chains) is part of the dataset, and the
/// seed varies only the request stream, so runs with different seeds
/// measure the same system.
struct KeyDraw {
    zipf: Option<Zipf>,
    n: u64,
}

impl KeyDraw {
    fn new(spec: &KvSpec) -> KeyDraw {
        assert!(spec.keys.is_power_of_two());
        KeyDraw {
            zipf: spec.zipf_theta.map(|t| Zipf::new(u64::from(spec.keys), t)),
            n: u64::from(spec.keys),
        }
    }

    fn draw(&self, rng: &mut Rng) -> u32 {
        let rank = match &self.zipf {
            Some(z) => z.sample(rng),
            None => rng.below(self.n),
        };
        (rank
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x2545_f491)
            & (self.n - 1)) as u32
    }
}

fn boot(spec: &KvSpec) -> Result<(Arc<Kernel>, PerCoreServer), String> {
    let kernel = Kernel::new(spec.kernel_bytes);
    let server = PerCoreServer::new(
        &kernel,
        PerCoreConfig {
            shards: SHARDS,
            heap_per_shard: spec.heap_per_shard,
            buckets: spec.buckets,
            fork_policy: ForkPolicy::OnDemand,
        },
    )
    .map_err(|e| format!("boot: {e}"))?;
    Ok((kernel, server))
}

/// Writes version 0 of every key over RESP, pipelined per shard.
fn preload(spec: &KvSpec, server: &PerCoreServer, ks: &Keyspace) -> Result<(), String> {
    let conns: Vec<Connection> = (0..SHARDS).map(|s| server.connect_to(s)).collect();
    let mut in_flight = [0usize; SHARDS];
    let mut value = Vec::new();
    let mut replies = Vec::new();
    let mut settle = |conn: &Connection, n: &mut usize| -> Result<(), String> {
        replies.clear();
        match conn.await_replies(*n, &mut replies) {
            0 => {
                *n = 0;
                Ok(())
            }
            errors => Err(format!("preload: {errors} SETs failed")),
        }
    };
    for id in 0..spec.keys {
        let s = ks.shard[id as usize];
        value_into(id, 0, spec.value_len, &mut value);
        conns[s].send(&encode_command(&[b"SET", &ks.keys[id as usize], &value]));
        in_flight[s] += 1;
        if in_flight[s] == PRELOAD_WINDOW {
            settle(&conns[s], &mut in_flight[s])?;
        }
    }
    for (conn, n) in conns.iter().zip(in_flight.iter_mut()) {
        settle(conn, n)?;
    }
    Ok(())
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Get { key: u32, version: u32 },
    Set { key: u32, version: u32 },
}

/// One connection's closed loop: the batch in flight and its replies.
struct Lane {
    conn: Connection,
    rng: Rng,
    ops: Vec<Op>,
    /// The batch opens with a BGSAVE, whose reply precedes the ops'.
    bgsave: bool,
    out: Vec<u8>,
    replies: Vec<u8>,
    scanned: usize,
    parsed: usize,
    sent_ns: u64,
    busy: bool,
    batch: u64,
    span: u32,
}

/// A snapshot requested by BGSAVE, with its oracle bounds, handed to the
/// collector once the BGSAVE is acknowledged.
struct SnapReq {
    id: u64,
    sent_ns: u64,
    lower: Vec<u32>,
    upper: Vec<u32>,
}

/// A delivered snapshot: when, and what the oracle found.
struct SnapDone {
    id: u64,
    sent_ns: u64,
    wait_ns: u64,
    delivered_ns: u64,
    result: Result<u64, String>,
}

/// Blocks in `wait_snapshots` for each acknowledged BGSAVE and checks the
/// dump. It drives no load: the generator stays the only client.
fn collect(
    spec: &KvSpec,
    server: &PerCoreServer,
    t0: Instant,
    reqs: Receiver<SnapReq>,
    done: Sender<SnapDone>,
) {
    let now = || t0.elapsed().as_nanos() as u64;
    for req in reqs {
        let wait_ns = now();
        let mut snaps = server.wait_snapshots();
        let delivered_ns = now();
        let result = match (snaps.pop(), snaps.len()) {
            (Some(snap), 0) => check_dump(&snap.dumps, &req.lower, &req.upper, spec.value_len)
                .map(|()| snap.fork_ns),
            (_, more) => Err(format!("{} snapshots for one BGSAVE", more + 1)),
        };
        let msg = SnapDone {
            id: req.id,
            sent_ns: req.sent_ns,
            wait_ns,
            delivered_ns,
            result,
        };
        if done.send(msg).is_err() {
            return;
        }
    }
}

/// What one timed window measured.
struct Window {
    log: OpLog,
    failed: u64,
    batch_rtt_ns: Vec<u64>,
    bgsave_ack_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
    fork_ns: Vec<u64>,
    snapshots: u64,
    snapshots_failed: u64,
    first_error: Option<String>,
    wall_ns: u64,
    idle_ns: u64,
}

impl Window {
    fn new(start_ns: u64) -> Window {
        Window {
            log: OpLog::new(WINDOW, start_ns),
            failed: 0,
            batch_rtt_ns: Vec::new(),
            bgsave_ack_ns: Vec::new(),
            snapshot_ns: Vec::new(),
            fork_ns: Vec::new(),
            snapshots: 0,
            snapshots_failed: 0,
            first_error: None,
            wall_ns: 0,
            idle_ns: 0,
        }
    }

    fn ops_per_s(&self) -> f64 {
        self.log.len() as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn fail(&mut self, e: String) {
        self.first_error.get_or_insert(e);
    }
}

/// The BGSAVE cycle: at most one snapshot outstanding, as in Redis.
enum Snap {
    /// No snapshot outstanding; `true` if the next lane-0 batch should
    /// open with a BGSAVE.
    Idle(bool),
    /// BGSAVE sent, reply not yet in.
    Sent {
        id: u64,
        sent_ns: u64,
        lower: Vec<u32>,
        span: u32,
    },
    /// Acknowledged; the collector is waiting for the snapshot.
    Acked,
}

/// The single generator thread's state.
struct Gen<'a> {
    spec: &'a KvSpec,
    ks: Keyspace,
    draw: KeyDraw,
    lanes: Vec<Lane>,
    value: Vec<u8>,
    scratch: Vec<u8>,
    tr: Tracer,
    snap: Snap,
    snap_ids: u64,
    snap_tx: Sender<SnapReq>,
    snap_rx: Receiver<SnapDone>,
    batches: u64,
}

impl<'a> Gen<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        spec: &'a KvSpec,
        ks: Keyspace,
        server: &PerCoreServer,
        seed: u64,
        round: u64,
        t0: Instant,
        snap_tx: Sender<SnapReq>,
        snap_rx: Receiver<SnapDone>,
    ) -> Gen<'a> {
        Gen {
            spec,
            ks,
            draw: KeyDraw::new(spec),
            lanes: (0..SHARDS)
                .map(|s| Lane {
                    conn: server.connect_to(s),
                    rng: Rng::new(seed, (round << 8) | s as u64),
                    ops: Vec::with_capacity(DEPTH),
                    bgsave: false,
                    out: Vec::new(),
                    replies: Vec::new(),
                    scanned: 0,
                    parsed: 0,
                    sent_ns: 0,
                    busy: false,
                    batch: 0,
                    span: 0,
                })
                .collect(),
            value: Vec::with_capacity(spec.value_len),
            scratch: Vec::new(),
            tr: Tracer::new(t0),
            snap: Snap::Idle(false),
            snap_ids: 0,
            snap_tx,
            snap_rx,
            batches: 0,
        }
    }

    /// Runs the closed loops for `dur`, then lets every batch in flight
    /// finish and waits, untimed, for an outstanding snapshot.
    fn window(&mut self, dur: Duration) -> Window {
        let start = self.tr.now();
        let mut w = Window::new(start);
        let deadline = start + dur.as_nanos() as u64;
        if self.spec.snapshots {
            self.snap = Snap::Idle(true);
        }
        for i in 0..self.lanes.len() {
            self.send_batch(i);
        }
        while self.lanes.iter().any(|l| l.busy) {
            let mut progressed = false;
            for i in 0..self.lanes.len() {
                if self.lanes[i].busy && self.poll(i, deadline, &mut w) {
                    progressed = true;
                }
            }
            while let Ok(done) = self.snap_rx.try_recv() {
                self.delivered(done, self.tr.now() < deadline, &mut w);
                progressed = true;
            }
            if !progressed {
                // Park on the oldest batch; the other lane is drained on
                // the next pass.
                let oldest = (0..self.lanes.len())
                    .filter(|&i| self.lanes[i].busy)
                    .min_by_key(|&i| self.lanes[i].sent_ns)
                    .expect("a busy lane");
                let t = self.tr.now();
                self.lanes[oldest].conn.wait_readable();
                let now = self.tr.now();
                w.idle_ns += now - t;
                let parent = self.lanes[oldest].span;
                let batch = self.lanes[oldest].batch;
                self.tr.record("wait_readable", batch, parent, t, now);
            }
        }
        w.wall_ns = self.tr.now() - start;
        if matches!(self.snap, Snap::Acked) {
            let done = self.snap_rx.recv().expect("collector running");
            self.delivered(done, false, &mut w);
        }
        self.snap = Snap::Idle(false);
        w
    }

    /// Fills lane `i` with its next batch and sends it.
    fn send_batch(&mut self, i: usize) {
        let Gen {
            spec,
            ks,
            draw,
            lanes,
            value,
            tr,
            snap,
            snap_ids,
            batches,
            ..
        } = self;
        let lane = &mut lanes[i];
        *batches += 1;
        lane.batch = *batches;
        lane.span = tr.open("batch", lane.batch, 0);
        lane.out.clear();
        lane.ops.clear();
        lane.replies.clear();
        lane.scanned = 0;
        lane.parsed = 0;
        lane.bgsave = i == 0 && matches!(snap, Snap::Idle(true));
        while lane.ops.len() < DEPTH {
            let key = draw.draw(&mut lane.rng);
            let k = key as usize;
            if ks.shard[k] != i {
                continue;
            }
            if lane.rng.below(1000) < spec.set_permille {
                ks.sent[k] += 1;
                let version = ks.sent[k];
                value_into(key, version, spec.value_len, value);
                lane.out
                    .extend_from_slice(&encode_command(&[b"SET", &ks.keys[k], value]));
                lane.ops.push(Op::Set { key, version });
            } else {
                lane.out
                    .extend_from_slice(&encode_command(&[b"GET", &ks.keys[k]]));
                lane.ops.push(Op::Get {
                    key,
                    version: ks.sent[k],
                });
            }
        }
        if lane.bgsave {
            *snap_ids += 1;
            let mut batch = encode_command(&[b"BGSAVE"]);
            batch.extend_from_slice(&lane.out);
            lane.out = batch;
            let lower = ks.acked.clone();
            let span = tr.open("BGSAVE", *snap_ids, lane.span);
            *snap = Snap::Sent {
                id: *snap_ids,
                sent_ns: tr.now(),
                lower,
                span,
            };
        }
        lane.sent_ns = tr.now();
        lane.busy = true;
        tr.span("send", lane.batch, lane.span, || lane.conn.send(&lane.out));
    }

    /// Drains lane `i`'s replies, checks each, and starts its next batch
    /// once the current one is complete. Returns whether any reply came.
    fn poll(&mut self, i: usize, deadline: u64, w: &mut Window) -> bool {
        match self.drain(i, w) {
            None => false,
            Some(complete_at) => {
                if complete_at.is_some_and(|t| t < deadline) {
                    self.send_batch(i);
                }
                true
            }
        }
    }

    /// Parses and checks what lane `i` has received: `None` if nothing,
    /// else whether (and when) its batch completed.
    fn drain(&mut self, i: usize, w: &mut Window) -> Option<Option<u64>> {
        let Gen {
            spec,
            ks,
            lanes,
            scratch,
            tr,
            snap,
            snap_tx,
            ..
        } = self;
        let lane = &mut lanes[i];
        let recv_start = tr.now();
        if lane.conn.recv_into(&mut lane.replies) == 0 {
            assert!(
                !lane.conn.is_closed(),
                "server closed connection {i} mid-run"
            );
            return None;
        }
        let now = tr.now();
        while let Some(used) = skip_reply(&lane.replies[lane.scanned..]) {
            let reply = &lane.replies[lane.scanned..lane.scanned + used];
            if lane.bgsave && lane.parsed == 0 {
                let Snap::Sent {
                    id,
                    sent_ns,
                    lower,
                    span,
                } = std::mem::replace(snap, Snap::Acked)
                else {
                    unreachable!("a BGSAVE reply with no BGSAVE sent");
                };
                tr.close(span);
                w.bgsave_ack_ns.push(now - sent_ns);
                if reply == BGSAVE_ACK {
                    let upper = ks.sent.clone();
                    let req = SnapReq {
                        id,
                        sent_ns,
                        lower,
                        upper,
                    };
                    snap_tx.send(req).expect("collector running");
                } else {
                    w.snapshots += 1;
                    w.snapshots_failed += 1;
                    w.fail(format!("BGSAVE replied {}", String::from_utf8_lossy(reply)));
                    *snap = Snap::Idle(false);
                }
            } else {
                let op = lane.ops[lane.parsed - usize::from(lane.bgsave)];
                let ok = match op {
                    Op::Set { key, version } => {
                        let ok = reply == b"+OK\r\n";
                        if ok {
                            ks.acked[key as usize] = version;
                        }
                        ok
                    }
                    Op::Get { key, version } => {
                        check_get(reply, key, version, spec.value_len, scratch)
                    }
                };
                if ok {
                    w.log.push(now - lane.sent_ns, now);
                } else {
                    w.failed += 1;
                    w.log.push(u64::MAX, now);
                    w.fail(format!(
                        "{op:?} got {}",
                        String::from_utf8_lossy(&reply[..reply.len().min(64)])
                    ));
                }
            }
            lane.scanned += used;
            lane.parsed += 1;
        }
        tr.record("recv", lane.batch, lane.span, recv_start, now);
        if lane.parsed < lane.ops.len() + usize::from(lane.bgsave) {
            return Some(None);
        }
        w.batch_rtt_ns.push(now - lane.sent_ns);
        tr.close(lane.span);
        lane.busy = false;
        Some(Some(now))
    }

    /// Books a delivered snapshot; asks for the next one if `again`.
    fn delivered(&mut self, done: SnapDone, again: bool, w: &mut Window) {
        self.tr.record(
            "wait_snapshots",
            done.id,
            0,
            done.wait_ns,
            done.delivered_ns,
        );
        w.snapshots += 1;
        w.snapshot_ns.push(done.delivered_ns - done.sent_ns);
        match done.result {
            Ok(fork_ns) => w.fork_ns.push(fork_ns),
            Err(e) => {
                w.snapshots_failed += 1;
                w.fail(format!("snapshot {}: {e}", done.id));
            }
        }
        self.snap = Snap::Idle(again);
    }
}

/// Boots the server and preloads every key.
fn set_up(spec: &KvSpec) -> Result<(Arc<Kernel>, PerCoreServer, Keyspace), String> {
    let (kernel, server) = boot(spec)?;
    let ks = Keyspace::new(spec, &server);
    preload(spec, &server, &ks)?;
    Ok((kernel, server, ks))
}

/// Runs `drive` with a generator on `server` (input stream `round` of
/// `seed`) and, for snapshot workloads, the collector thread beside it.
fn with_generator<T>(
    spec: &KvSpec,
    server: &PerCoreServer,
    ks: Keyspace,
    seed: u64,
    round: u64,
    drive: impl FnOnce(&mut Gen) -> T,
) -> T {
    let t0 = Instant::now();
    let (snap_tx, req_rx) = channel();
    let (done_tx, snap_rx) = channel();
    std::thread::scope(|scope| {
        let collector = spec
            .snapshots
            .then(|| scope.spawn(|| collect(spec, server, t0, req_rx, done_tx)));
        let mut gen = Gen::new(spec, ks, server, seed, round, t0, snap_tx, snap_rx);
        let out = drive(&mut gen);
        drop(gen);
        if let Some(c) = collector {
            c.join().expect("collector thread");
        }
        out
    })
}

/// Books a window's checked requests and snapshots.
fn book(w: &Window, out: &mut Outcome) {
    out.checked(
        w.log.len() as u64 + w.snapshots,
        w.failed + w.snapshots_failed,
        &w.first_error,
    );
}

/// Notes the snapshot lag, BGSAVE sent to snapshot delivered, of a run.
fn note_snapshots(mut lag_ns: Vec<u64>, out: &mut Outcome) {
    if let Some(p50) = median(sorted(&mut lag_ns)) {
        out.notes.push(format!(
            "snapshot_p50_s {:.4} s over {} snapshots (not gated)",
            p50 as f64 / 1e9,
            lag_ns.len()
        ));
    }
}

pub(crate) fn run(spec: &KvSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !args.trace {
        let mut rounds = Vec::new();
        let mut lag_ns = Vec::new();
        for round in 0..ROUNDS {
            let t = Instant::now();
            let (_kernel, server, ks) = set_up(spec)?;
            let setup_s = t.elapsed().as_secs_f64();
            let dur = args.duration() / ROUNDS as u32;
            let w = with_generator(spec, &server, ks, args.seed, round, |gen| gen.window(dur));
            book(&w, &mut out);
            lag_ns.extend_from_slice(&w.snapshot_ns);
            rounds.push(Round {
                setup_s,
                log: w.log,
                peak_rss_mib: stats::peak_rss_mib(),
            });
        }
        out.values = Values::end_to_end(&rounds);
        note_snapshots(lag_ns, &mut out);
        return Ok(out);
    }
    let (kernel, server, ks) = set_up(spec)?;
    with_generator(spec, &server, ks, args.seed, 0, |gen| {
        traced(spec, args, &kernel, &server, gen, &mut out)
    })?;
    Ok(out)
}

/// The traced run: an untraced half, a traced half, then the ladder rungs.
fn traced(
    spec: &KvSpec,
    args: &Args,
    kernel: &Kernel,
    server: &PerCoreServer,
    gen: &mut Gen,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = args.duration() / 2;
    let untraced = gen.window(half);
    let before = kernel.stats();
    odf_trace::clear();
    odf_trace::set_enabled(true);
    gen.tr.set_on(true);
    let w = gen.window(half);
    gen.tr.set_on(false);
    odf_trace::set_enabled(false);
    let delta = kernel.stats() - before;
    let v = &mut out.values;
    v.set(
        "trace.overhead_frac",
        1.0 - w.ops_per_s() / untraced.ops_per_s(),
    );
    v.set(
        "loadgen.busy_frac",
        1.0 - w.idle_ns as f64 / w.wall_ns as f64,
    );
    let us = |v: Option<u64>| v.map(|ns| ns as f64 / 1e3);
    let mut rtt = w.batch_rtt_ns.clone();
    let rtt = sorted(&mut rtt);
    v.opt("kvstore.batch_rtt_us.p50", us(median(rtt)));
    v.opt("kvstore.batch_rtt_us.p99", us(tail(rtt, 0.99)));
    let mut ack = w.bgsave_ack_ns.clone();
    v.opt("kvstore.bgsave_ack_us.p50", us(median(sorted(&mut ack))));
    let mut fork = w.fork_ns.clone();
    let fork = sorted(&mut fork);
    v.opt("kvstore.fork_us.p50", us(median(fork)));
    v.opt("kvstore.fork_us.max", us(fork.last().copied()));
    let mut snaps = w.snapshot_ns.clone();
    v.opt(
        "kvstore.snapshot_ms.p50",
        median(sorted(&mut snaps)).map(|ns| ns as f64 / 1e6),
    );
    layer_summary(v);
    kernel_counters(v, &delta, w.log.len() as u64);
    store_rungs(spec, server, &gen.ks, v, args.seed)?;
    v.set("vm.mem_used_mib", mem_used_mib(kernel));
    out.notes.push(format!(
        "tracing: {:.1} requests/s untraced, {:.1} traced",
        untraced.ops_per_s(),
        w.ops_per_s()
    ));
    book(&untraced, out);
    book(&w, out);
    note_snapshots(w.snapshot_ns, out);
    out.spans = Some(std::mem::replace(&mut gen.tr, Tracer::new(Instant::now())));
    Ok(())
}

/// Ladder rungs timed directly on the final store image, between requests:
/// `Store` get and set through the sharded store, a resident random
/// `read_u64` in the store heaps, and a Classic fork of the server.
fn store_rungs(
    spec: &KvSpec,
    server: &PerCoreServer,
    ks: &Keyspace,
    values: &mut Values,
    seed: u64,
) -> Result<(), String> {
    let proc = server.process();
    let store = server.store();
    let mut rng = Rng::new(seed, 1 << 32);
    let mut value = Vec::new();
    let mut get_ns = Vec::with_capacity(RUNG_OPS);
    let mut set_ns = Vec::with_capacity(RUNG_OPS);
    for _ in 0..RUNG_OPS {
        let key = rng.below(u64::from(spec.keys)) as u32;
        let k = key as usize;
        value_into(key, ks.acked[k], spec.value_len, &mut value);
        let t = Instant::now();
        let got = store
            .get(&proc, &ks.keys[k])
            .map_err(|e| format!("rung get: {e}"))?;
        get_ns.push(t.elapsed().as_nanos() as u64);
        if got.as_deref() != Some(value.as_slice()) {
            return Err(format!("rung get of key {key} read a wrong value"));
        }
        // Rewrites the value the key already holds, so the image is unchanged.
        let t = Instant::now();
        store
            .set(&proc, &ks.keys[k], &value)
            .map_err(|e| format!("rung set: {e}"))?;
        set_ns.push(t.elapsed().as_nanos() as u64);
    }
    let us = |v: &mut Vec<u64>| median(sorted(v)).expect("samples") as f64 / 1e3;
    values.set("kvstore.store_get_us", us(&mut get_ns));
    values.set("kvstore.store_set_us", us(&mut set_ns));
    let heaps: Vec<(u64, u64)> = (0..SHARDS)
        .map(|s| {
            let heap = store.shard(s).heap();
            let used = heap.used(&proc).map_err(|e| format!("heap: {e}"))?;
            Ok((heap.base(), used))
        })
        .collect::<Result<_, String>>()?;
    values.set("vm.read_u64_ns", read_rung_at(&proc, &mut rng, &heaps)?);
    values.set("vm.fork_classic_us.p50", classic_rung_of(&proc)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small key space that still spans both shards.
    const TINY: KvSpec = KvSpec {
        keys: 256,
        value_len: 64,
        set_permille: 500,
        zipf_theta: Some(0.99),
        snapshots: true,
        heap_per_shard: 4 << 20,
        buckets: 256,
        kernel_bytes: 64 << 20,
    };

    fn tiny_args(trace: bool) -> Args {
        Args {
            workload: crate::Workload::KvSnapshot,
            seed: 11,
            seconds: 1,
            trace,
        }
    }

    #[test]
    fn a_short_snapshot_run_passes_every_oracle() {
        let out = run(&TINY, &tiny_args(false)).expect("run");
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        assert!(out.attempted > 100);
    }

    #[test]
    fn the_traced_run_times_the_rungs() {
        let out = run(&TINY, &tiny_args(true)).expect("run");
        assert_eq!(out.failed, 0, "{:?}", out.first_error);
        for name in [
            "kvstore.store_get_us",
            "vm.read_u64_ns",
            "kvstore.snapshot_ms.p50",
        ] {
            assert!(out.values.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn a_stale_value_planted_in_the_store_fails_the_run() {
        let (_kernel, server) = boot(&TINY).expect("boot");
        let mut ks = Keyspace::new(&TINY, &server);
        preload(&TINY, &server, &ks).expect("preload");
        // The generator believes every key is at version 1; the store
        // still holds version 0 of all of them.
        ks.sent.fill(1);
        ks.acked.fill(1);
        let w = with_generator(&KV_READ_TINY, &server, ks, 1, 0, |gen| {
            gen.window(Duration::from_millis(50))
        });
        assert!(w.failed > 0, "stale GETs must fail");
        let missed = w.log.latencies().iter().filter(|&&l| l == u64::MAX).count();
        assert_eq!(missed as u64, w.failed);
    }

    /// `TINY` without snapshots and read-only, for the planted-value test.
    const KV_READ_TINY: KvSpec = KvSpec {
        set_permille: 0,
        snapshots: false,
        ..TINY
    };
}
