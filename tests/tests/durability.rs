//! Deterministic crash-injection harness for the durability stack.
//!
//! The contract under test (ISSUE 8): after simulated power loss at *any*
//! write/fsync boundary, recovery yields a state equal to some prefix of
//! the mutation order that contains every acknowledged-durable write, and
//! recovering twice is idempotent.
//!
//! Mechanics: a recording pass replays a scripted kv workload against a
//! [`CrashFs`] and counts every mutating storage operation. The harness
//! then re-runs the same workload once per operation index with a
//! [`CrashPlan`] armed at that index — simulating power loss *before* the
//! op (and, for fsyncs, a torn half-persisted fsync) — recovers from the
//! surviving bytes, and compares the recovered store against a
//! prefix-consistency oracle built from a pure [`BTreeMap`] model.
//!
//! Every failure message embeds the seed, crash index, and mode, so any
//! reported counterexample reruns exactly with `ODF_CRASH_SEED`.

use std::collections::BTreeMap;
use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel};
use odf_durability::{CrashFs, CrashMode, CrashPlan, FsError, FsyncPolicy, OpKind, WalConfig};
use odf_kvstore::{DurableConfig, DurableServer, PersistError, ReplyBuf};
use odf_tests::{kv_script, KvOp};
use proptest::prelude::*;

const MIB: u64 = 1 << 20;
const OPS: usize = 24;
const KEY_SPACE: u64 = 6;

fn config(fsync: FsyncPolicy) -> DurableConfig {
    DurableConfig {
        heap_capacity: 2 * MIB,
        buckets: 64,
        fork_policy: ForkPolicy::OnDemand,
        incremental: true,
        // Several bgsaves per script, so crash points land inside the
        // fork/publish/truncate sequence too.
        snapshot_every: 8,
        wal: WalConfig {
            segment_bytes: 2048, // small segments force mid-script rotation
            fsync,
        },
    }
}

fn kernel() -> Arc<Kernel> {
    Kernel::new(48 * MIB)
}

/// The pure model the recovered store is diffed against.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

fn apply_model(m: &mut Model, op: &KvOp) {
    match op {
        KvOp::Set { key, value } => {
            m.insert(key.clone(), value.clone());
        }
        KvOp::Del { key } => {
            m.remove(key);
        }
        KvOp::Incr { key } => {
            let current = m
                .get(key)
                .map(|v| {
                    String::from_utf8(v.clone())
                        .unwrap()
                        .parse::<i64>()
                        .unwrap()
                })
                .unwrap_or(0);
            m.insert(key.clone(), (current + 1).to_string().into_bytes());
        }
        KvOp::Append { key, suffix } => {
            m.entry(key.clone()).or_default().extend_from_slice(suffix);
        }
    }
}

/// Model states after every prefix: `states[j]` is the store after the
/// first `j` ops.
fn prefix_states(script: &[KvOp]) -> Vec<Model> {
    let mut states = vec![Model::new()];
    let mut m = Model::new();
    for op in script {
        apply_model(&mut m, op);
        states.push(m.clone());
    }
    states
}

/// Parses `Store::serialize` output into a comparable map.
fn parse_dump(dump: &[u8]) -> Model {
    let items = u64::from_le_bytes(dump[0..8].try_into().unwrap());
    let mut m = Model::new();
    let mut at = 8usize;
    for _ in 0..items {
        let klen = u32::from_le_bytes(dump[at..at + 4].try_into().unwrap()) as usize;
        let vlen = u32::from_le_bytes(dump[at + 4..at + 8].try_into().unwrap()) as usize;
        at += 8;
        let key = dump[at..at + klen].to_vec();
        at += klen;
        let value = dump[at..at + vlen].to_vec();
        at += vlen;
        m.insert(key, value);
    }
    assert_eq!(at, dump.len(), "trailing bytes in dump");
    m
}

struct RunOutcome {
    /// Ops attempted, including the one interrupted by the crash.
    started: usize,
    /// Ops known acknowledged-durable when the crash hit.
    acked: usize,
    crashed: bool,
}

/// Drives the script against a (possibly armed) fs until completion or
/// simulated power loss.
fn run(fs: &Arc<CrashFs>, script: &[KvOp], cfg: DurableConfig) -> RunOutcome {
    let k = kernel();
    let mut srv = match DurableServer::open(&k, fs.clone(), cfg) {
        Ok((srv, _)) => srv,
        Err(PersistError::Fs(FsError::Crashed)) => {
            return RunOutcome {
                started: 0,
                acked: 0,
                crashed: true,
            }
        }
        Err(e) => panic!("open failed non-crash: {e}"),
    };
    let mut acked = 0;
    for (i, op) in script.iter().enumerate() {
        match srv.execute(&op.argv(), &mut ReplyBuf::new()) {
            Ok(a) => {
                if a.is_some_and(|a| a.durable) {
                    acked = i + 1;
                }
            }
            Err(PersistError::Fs(FsError::Crashed)) => {
                return RunOutcome {
                    started: i + 1,
                    acked,
                    crashed: true,
                }
            }
            Err(e) => panic!("op {i} failed non-crash: {e}"),
        }
    }
    RunOutcome {
        started: script.len(),
        acked,
        crashed: false,
    }
}

/// Recovers from `fs` and returns the materialized store contents.
fn recovered_state(fs: &Arc<CrashFs>, cfg: DurableConfig, ctx: &str) -> Model {
    let k = kernel();
    let (srv, _) = DurableServer::open(&k, fs.clone(), cfg)
        .unwrap_or_else(|e| panic!("recovery failed ({ctx}): {e}"));
    parse_dump(
        &srv.dump()
            .unwrap_or_else(|e| panic!("dump failed ({ctx}): {e}")),
    )
}

/// Crashes at storage-op `at`, recovers, and checks the oracle.
fn check_crash_point(script: &[KvOp], states: &[Model], at: u64, mode: CrashMode, seed: u64) {
    let cfg = config(FsyncPolicy::Always);
    let fs = Arc::new(CrashFs::new());
    fs.arm(CrashPlan { at, mode });
    let out = run(&fs, script, cfg);
    let ctx = format!("seed {seed}, crash at op {at}, mode {mode:?}");
    assert!(out.crashed, "plan must fire within the workload ({ctx})");

    let survivor = Arc::new(fs.crash());
    let recovered = recovered_state(&survivor, cfg, &ctx);
    let again = recovered_state(&survivor, cfg, &ctx);
    assert_eq!(recovered, again, "recovery is not idempotent ({ctx})");

    let matched = (out.acked..=out.started).any(|j| states[j] == recovered);
    assert!(
        matched,
        "recovered state is not a prefix in [acked {}..=started {}] ({ctx}); \
         recovered {} keys",
        out.acked,
        out.started,
        recovered.len()
    );
}

/// Exhaustively enumerates every storage-operation boundary for one seed.
fn check_seed(seed: u64) {
    let script = kv_script(seed, OPS, KEY_SPACE);
    let states = prefix_states(&script);
    let cfg = config(FsyncPolicy::Always);

    // Recording pass: how many storage ops does the full run make, and
    // which of them are fsyncs (candidates for torn-fsync injection)?
    let fs = Arc::new(CrashFs::new());
    let out = run(&fs, &script, cfg);
    assert!(!out.crashed, "recording pass must complete");
    assert_eq!(out.acked, OPS, "Always policy acks everything");
    let op_log = fs.op_log();

    // The completed run must recover to exactly the final state.
    let survivor = Arc::new(fs.crash());
    let final_ctx = format!("seed {seed}, clean shutdown");
    assert_eq!(
        recovered_state(&survivor, cfg, &final_ctx),
        states[OPS],
        "clean recovery lost acknowledged writes ({final_ctx})"
    );

    for at in 0..op_log.len() as u64 {
        check_crash_point(&script, &states, at, CrashMode::Before, seed);
        if op_log[at as usize] == OpKind::Fsync {
            check_crash_point(&script, &states, at, CrashMode::TornFsync, seed);
        }
    }
}

#[test]
fn crash_at_every_boundary_fixed_seed() {
    check_seed(0xD15C_0C0A);
}

/// CI sets `ODF_CRASH_SEED` to sweep extra seeds without recompiling.
#[test]
fn crash_at_every_boundary_env_seed() {
    if let Ok(seed) = std::env::var("ODF_CRASH_SEED") {
        let seed = seed.parse::<u64>().expect("ODF_CRASH_SEED must be a u64");
        eprintln!("crash-injection sweep with ODF_CRASH_SEED={seed}");
        check_seed(seed);
    }
}

/// Lazy-fsync policies may lose un-acked tails but never acked writes:
/// spot-check a few boundaries per seed under `EveryN` group commit.
#[test]
fn lazy_group_commit_never_loses_acked_writes() {
    let cfg = config(FsyncPolicy::EveryN(4));
    for seed in [1u64, 2, 3] {
        let script = kv_script(seed, OPS, KEY_SPACE);
        let states = prefix_states(&script);
        let fs = Arc::new(CrashFs::new());
        let out = run(&fs, &script, cfg);
        assert!(!out.crashed);
        let total = fs.ops();
        for at in (0..total).step_by(7) {
            let fs = Arc::new(CrashFs::new());
            fs.arm(CrashPlan {
                at,
                mode: CrashMode::Before,
            });
            let out = run(&fs, &script, cfg);
            assert!(out.crashed);
            let survivor = Arc::new(fs.crash());
            let ctx = format!("lazy seed {seed}, crash at {at}");
            let recovered = recovered_state(&survivor, cfg, &ctx);
            let matched = (out.acked..=out.started).any(|j| states[j] == recovered);
            assert!(matched, "prefix violation ({ctx})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: if cfg!(debug_assertions) { 2 } else { 6 },
        ..ProptestConfig::default()
    })]

    /// Property: for a random workload seed, every storage-op boundary
    /// recovers to a consistent prefix. (Seeds print in any failure via
    /// the embedded context string; rerun with ODF_CRASH_SEED=<seed>.)
    #[test]
    fn prop_random_workloads_survive_all_crash_points(seed in 0u64..1_000_000) {
        check_seed(seed);
    }
}
