//! Durability: acked-write throughput against fsync policy, and the cost
//! a crash-consistent bgsave adds under each fork policy.
//!
//! The WAL puts a storage round-trip on the serving path; the chain store
//! puts a fork plus an image publish on the snapshot path. This bench
//! measures both knobs the operator has:
//!
//! - fsync policy — `Always` buys per-write durability, `EveryN` amortizes
//!   the fsync over a group commit, `Never` leaves durability to the
//!   snapshot cadence;
//! - fork policy for bgsave — Classic copies page tables up front,
//!   OnDemand defers them, which is the paper's headline (§5.3.3) now
//!   measured *with* the durable publish in the loop.
//!
//! It also times a full crash-recovery cycle (chain restore + WAL tail
//! replay) for each configuration.
//!
//! Outputs (written to the current directory):
//!
//! - `BENCH_durability.json` — one row per {fsync policy x fork policy}:
//!   acked-write throughput, write-latency distribution, bgsave count,
//!   recovery wall time and records replayed.

use odf_bench as bench;
use odf_core::{ForkPolicy, Kernel};
use odf_durability::{DiskFs, FsyncPolicy, StorageFs, WalConfig};
use odf_kvstore::{DurableConfig, DurableServer, ReplyBuf};
use odf_metrics::{Histogram, Stopwatch};
use std::sync::Arc;

const MIB: u64 = 1 << 20;

struct Row {
    fsync: &'static str,
    fork_policy: ForkPolicy,
    writes: u64,
    acked_durable: u64,
    snapshots: u64,
    throughput_per_s: f64,
    write_hist: Histogram,
    recovery_ns: u64,
    replayed: u64,
}

impl Row {
    fn json(&self) -> String {
        format!(
            r#"{{"fsync":"{}","fork_policy":"{:?}","writes":{},"acked_durable":{},"snapshots":{},"acked_writes_per_s":{:.0},"write_p50_ns":{},"write_p99_ns":{},"recovery_ns":{},"wal_records_replayed":{}}}"#,
            self.fsync,
            self.fork_policy,
            self.writes,
            self.acked_durable,
            self.snapshots,
            self.throughput_per_s,
            self.write_hist.percentile(50.0),
            self.write_hist.percentile(99.0),
            self.recovery_ns,
            self.replayed,
        )
    }
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("odf-bench-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_config(
    fsync_name: &'static str,
    fsync: FsyncPolicy,
    fork_policy: ForkPolicy,
    writes: u64,
) -> Row {
    let dir = fresh_dir(&format!("{fsync_name}-{fork_policy:?}"));
    let fs: Arc<dyn StorageFs> = Arc::new(DiskFs::open(&dir).expect("open dir"));
    let config = DurableConfig {
        heap_capacity: 8 * MIB,
        buckets: 512,
        fork_policy,
        incremental: true,
        snapshot_every: writes / 8, // several bgsaves per pass
        wal: WalConfig {
            segment_bytes: MIB,
            fsync,
        },
    };

    let kernel = Kernel::new(96 * MIB);
    let snaps_before = odf_durability::stats().snapshot().snapshots_published;
    let value = vec![0x5au8; 128];
    let mut write_hist = Histogram::new();
    let mut acked_durable = 0u64;
    {
        let (mut srv, _) = DurableServer::open(&kernel, Arc::clone(&fs), config).expect("open");
        let mut reply = ReplyBuf::new();
        let mut replies = Vec::new();
        let mut set = |srv: &mut DurableServer, key: &[u8]| {
            let ack = srv
                .execute(&[b"SET", key, &value], &mut reply)
                .expect("set");
            replies.clear();
            reply.flush_into(&mut replies);
            assert_eq!(replies, b"+OK\r\n");
            ack.expect("SET is journaled")
        };
        let wall = Stopwatch::start();
        for i in 0..writes {
            let key = format!("key:{:06}", i % 4096);
            let one = Stopwatch::start();
            let ack = set(&mut srv, key.as_bytes());
            write_hist.record(one.elapsed_ns());
            if ack.durable {
                acked_durable += 1;
            }
        }
        let elapsed_s = wall.elapsed_ns() as f64 / 1e9;
        // An untimed tail of writes past the last snapshot, so the
        // recovery measurement includes genuine WAL replay work.
        for i in 0..writes / 64 {
            set(&mut srv, format!("tail:{i}").as_bytes());
        }
        // Make the tail durable so recovery must honor all of it.
        srv.sync().expect("sync");
        let snapshots = odf_durability::stats().snapshot().snapshots_published - snaps_before;

        let (recovery_ns, replayed) = {
            drop(srv);
            let k2 = Kernel::new(96 * MIB);
            let sw = Stopwatch::start();
            let (srv2, report) =
                DurableServer::open(&k2, Arc::clone(&fs), config).expect("recover");
            let ns = sw.elapsed_ns();
            assert!(
                srv2.store()
                    .get(srv2.process(), b"key:000000")
                    .expect("get")
                    .is_some(),
                "recovered store lost data"
            );
            (ns, report.wal_records_to_replay)
        };

        let row = Row {
            fsync: fsync_name,
            fork_policy,
            writes,
            acked_durable,
            snapshots,
            throughput_per_s: writes as f64 / elapsed_s.max(1e-9),
            write_hist,
            recovery_ns,
            replayed,
        };
        let _ = std::fs::remove_dir_all(&dir);
        row
    }
}

fn main() {
    bench::banner(
        "durability",
        "acked-write throughput vs fsync policy; durable bgsave by fork policy",
    );

    let writes = if bench::fast_mode() { 2_000 } else { 20_000 } as u64;
    let policies: &[(&'static str, FsyncPolicy)] = &[
        ("always", FsyncPolicy::Always),
        ("every8", FsyncPolicy::EveryN(8)),
        ("every64", FsyncPolicy::EveryN(64)),
        ("never", FsyncPolicy::Never),
    ];

    let mut rows = Vec::new();
    for &(name, fsync) in policies {
        for fork_policy in [ForkPolicy::Classic, ForkPolicy::OnDemand] {
            let row = run_config(name, fsync, fork_policy, writes);
            println!(
                "{:>7} {:>8?} {:>9.0} acked-writes/s p50={} p99={} snaps={} recovery={} (+{} replayed)",
                row.fsync,
                row.fork_policy,
                row.throughput_per_s,
                bench::fmt_ns(row.write_hist.percentile(50.0)),
                bench::fmt_ns(row.write_hist.percentile(99.0)),
                row.snapshots,
                bench::fmt_ns(row.recovery_ns),
                row.replayed,
            );
            rows.push(row);
        }
    }

    let body: Vec<String> = rows.iter().map(|r| format!("    {}", r.json())).collect();
    let doc = format!(
        "{{\n  \"bench\": \"durability\",\n  \"unit\": \"ns\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write("BENCH_durability.json", doc).expect("write BENCH_durability.json");
    println!("wrote BENCH_durability.json ({} rows)", rows.len());
}
