//! One command table, three wire paths.
//!
//! The same scripted command stream goes to the single-threaded
//! [`Server`] and the WAL-journaled [`DurableServer`] through
//! `serve_stream`, and to a one-shard [`PerCoreServer`] through a
//! [`Connection`]. All three execute through the crate's one command
//! table, so every reply must be byte-identical — except the bodies of
//! `INFO` and `STATS` (live kernel counters) and the `BGSAVE`
//! acknowledgement, whose reply *type* must still match. The durable
//! server is then reopened from its storage: replaying its WAL through
//! the same table, failed `INCR` included, must rebuild the live store.
//!
//! The script covers every table entry, a wrong-arity case for each, an
//! empty and an unknown command, a name longer than 16 bytes, and a
//! 10-argument `PROBE ATTACH`. Its probe attaches to `wal_commit`, which
//! nothing here fires, and it detaches everything it attaches, so the
//! process-wide probe engine reads the same for every run. The test ends
//! with [`assert_pool_balanced`].

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel};
use odf_durability::CrashFs;
use odf_kvstore::{
    encode_command, serve_stream, Connection, DurableConfig, DurableServer, PerCoreConfig,
    PerCoreServer, Server, ServerConfig,
};
use odf_pmem::assert_pool_balanced;

const MIB: u64 = 1 << 20;

/// How two tiers' replies to one command must agree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Check {
    /// Byte for byte.
    Exact,
    /// Same RESP type byte (`+`, `-`, `:`, `$`, `*`).
    SameType,
}

use Check::{Exact, SameType};

#[rustfmt::skip]
const SCRIPT: &[(&[&[u8]], Check)] = &[
    (&[], Exact),
    (&[b"PING"], Exact),
    (&[b"ping"], Exact),
    (&[b"PING", b"extra"], Exact),
    (&[b"BGSAVE"], SameType),
    (&[b"BGSAVE", b"SCHEDULE"], Exact),
    (&[b"SET", b"k", b"v"], Exact),
    (&[b"SET", b"k"], Exact),
    (&[b"GET", b"k"], Exact),
    (&[b"get", b"k"], Exact),
    (&[b"GET"], Exact),
    (&[b"GET", b"missing"], Exact),
    (&[b"EXISTS", b"k"], Exact),
    (&[b"EXISTS", b"k", b"k"], Exact),
    (&[b"APPEND", b"k", b"23"], Exact),
    (&[b"APPEND", b"k"], Exact),
    (&[b"INCR", b"n"], Exact),
    (&[b"INCR", b"n"], Exact),
    (&[b"INCR", b"k"], Exact),
    (&[b"INCR"], Exact),
    (&[b"DBSIZE"], Exact),
    (&[b"DBSIZE", b"x"], Exact),
    (&[b"DEL", b"k"], Exact),
    (&[b"DEL", b"k"], Exact),
    (&[b"DEL"], Exact),
    (&[b"INFO"], SameType),
    (&[b"INFO", b"memory"], SameType),
    (&[b"INFO", b"memory", b"stats"], Exact),
    (&[b"STATS"], SameType),
    (&[b"STATS", b"json"], SameType),
    (&[b"STATS", b"RESET"], Exact),
    (&[b"STATS", b"bogus"], Exact),
    (&[b"STATS", b"json", b"x"], Exact),
    (&[b"PROBE"], Exact),
    (&[b"PROBE", b"BOGUS"], Exact),
    (&[b"PROBE", b"ATTACH", b"d1", b"wal_commit", b"count_by", b"key=pid",
      b"pid=999999", b"kind=none", b"minlat=0", b"maxkeys=16"], Exact),
    (&[b"PROBE", b"ATTACH", b"d1", b"wal_commit", b"count_by"], Exact),
    (&[b"PROBE", b"ATTACH", b"d2", b"nosuchpoint", b"count_by"], Exact),
    (&[b"PROBE", b"LIST"], Exact),
    (&[b"PROBE", b"READ", b"d1"], Exact),
    (&[b"PROBE", b"READ"], Exact),
    (&[b"PROBE", b"READ", b"d1", b"d2"], Exact),
    (&[b"PROBE", b"RESET"], Exact),
    (&[b"PROBE", b"DETACH"], Exact),
    (&[b"PROBE", b"DETACH", b"d1"], Exact),
    (&[b"PROBE", b"DETACH", b"d1"], Exact),
    (&[b"PROBE", b"READ", b"d1"], Exact),
    (&[b"FLUSHALL"], Exact),
    (&[b"A-COMMAND-NAME-LONGER-THAN-16-BYTES"], Exact),
];

/// One reply per scripted command, through `serve_stream`.
fn run_plain(kernel: &Arc<Kernel>) -> Vec<Vec<u8>> {
    let mut server = Server::new(
        kernel,
        ServerConfig {
            heap_capacity: 8 * MIB,
            snapshot_every: u64::MAX,
            fork_policy: ForkPolicy::OnDemand,
            ..Default::default()
        },
    )
    .unwrap();
    let replies = SCRIPT
        .iter()
        .map(|(cmd, _)| serve_stream(&mut server, &encode_command(cmd)))
        .collect();
    server.wait_snapshots();
    replies
}

/// One reply per scripted command, through a one-shard per-core server.
fn run_percore(kernel: &Arc<Kernel>) -> Vec<Vec<u8>> {
    let mut server = PerCoreServer::new(
        kernel,
        PerCoreConfig {
            shards: 1,
            heap_per_shard: 8 * MIB,
            buckets: 1024,
            fork_policy: ForkPolicy::OnDemand,
        },
    )
    .unwrap();
    let conn: Connection = server.connect_to(0);
    let replies = SCRIPT
        .iter()
        .map(|(cmd, _)| {
            conn.send(&encode_command(cmd));
            let mut out = Vec::new();
            conn.await_replies(1, &mut out);
            out
        })
        .collect();
    assert_eq!(server.wait_snapshots().len(), 1, "one BGSAVE in the script");
    server.shutdown();
    replies
}

/// One reply per scripted command, through `serve_stream` on a durable
/// server; then reopens it and checks that recovery rebuilds the live
/// store.
fn run_durable(kernel: &Arc<Kernel>) -> Vec<Vec<u8>> {
    let fs = Arc::new(CrashFs::new());
    let config = DurableConfig {
        heap_capacity: 8 * MIB,
        ..DurableConfig::default()
    };
    let (mut server, _) = DurableServer::open(kernel, fs.clone(), config).unwrap();
    let replies = SCRIPT
        .iter()
        .map(|(cmd, _)| serve_stream(&mut server, &encode_command(cmd)))
        .collect();
    let live = server.dump().unwrap();
    drop(server);
    let (recovered, report) = DurableServer::open(kernel, fs, config).unwrap();
    // The writes after the script's BGSAVE, each with valid arity:
    // SET k, APPEND k, INCR n twice, the failing INCR k, and DEL k twice.
    assert_eq!(report.wal_records_to_replay, 7);
    assert_eq!(
        recovered.dump().unwrap(),
        live,
        "replay diverged from the live run"
    );
    replies
}

#[test]
fn both_tiers_answer_the_command_table_identically() {
    let kernel = Kernel::new(256 * MIB);
    let baseline = kernel.machine().pool().balance();
    let plain = run_plain(&kernel);
    let percore = run_percore(&kernel);
    let durable = run_durable(&kernel);
    for (i, (cmd, check)) in SCRIPT.iter().enumerate() {
        let shown: Vec<_> = cmd.iter().map(|p| String::from_utf8_lossy(p)).collect();
        let a = &plain[i];
        let a_text = String::from_utf8_lossy(a);
        for b in [&percore[i], &durable[i]] {
            let b_text = String::from_utf8_lossy(b);
            match check {
                Exact => assert_eq!(a_text, b_text, "{shown:?}"),
                SameType => assert_eq!(a.first(), b.first(), "{shown:?}: {a_text} vs {b_text}"),
            }
        }
        assert!(!a.is_empty(), "{shown:?} got no reply");
    }
    // Spot-check that the script exercised what it claims to.
    let reply = |parts: &[&[u8]]| {
        let i = SCRIPT.iter().position(|(c, _)| *c == parts).unwrap();
        String::from_utf8_lossy(&percore[i]).into_owned()
    };
    assert_eq!(reply(&[b"GET", b"k"]), "$1\r\nv\r\n");
    assert_eq!(reply(&[b"DBSIZE"]), ":2\r\n");
    let attach: &[&[u8]] = SCRIPT[SCRIPT.iter().position(|(c, _)| c.len() == 10).unwrap()].0;
    assert_eq!(reply(attach), "+OK\r\n");
    assert_eq!(reply(&[b"PROBE", b"LIST"]).lines().next(), Some("*1"));
    assert_eq!(reply(&[b"PROBE", b"DETACH", b"d1"]), ":1\r\n");
    assert_eq!(reply(&[b"STATS", b"RESET"]), "+OK\r\n");
    let memory = reply(&[b"INFO", b"memory"]);
    assert!(memory.contains("# Memory") && !memory.contains("# Server"));
    assert!(reply(&[b"INFO"]).contains("# Persistence"));
    assert_eq!(reply(&[b"BGSAVE"]), "+Background saving started\r\n");
    assert!(reply(&[b"A-COMMAND-NAME-LONGER-THAN-16-BYTES"]).starts_with("-ERR unknown command"));
    assert_pool_balanced(kernel.machine().pool(), baseline);
}
