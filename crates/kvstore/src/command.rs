//! The command table: every RESP command the store serves, declared once,
//! and the one executor every serving tier calls.
//!
//! Each entry gives a name, an arity (argument count including the name)
//! and an [`Op`], whose variant is the command's class:
//!
//! - **key-local** ([`KeyOp`]): reads or writes the key in `argv[1]`, on
//!   the store that owns it;
//! - **admin** ([`AdminOp`]): process-wide observability — `PING`,
//!   `INFO [section]`, `STATS [JSON|RESET]`, `PROBE ...` — that any shard
//!   answers from the kernel it shares;
//! - **server** ([`ServerOp`]): `DBSIZE` and `BGSAVE`, which need the
//!   whole server (every shard, or its snapshot machinery) and so go back
//!   to the caller.
//!
//! The executor never asks which server called it: a tier supplies its
//! process, key routing and snapshot facts through [`Host`].

use std::borrow::Cow;
use std::fmt::Write as _;
use std::ops::RangeInclusive;

use odf_core::{ForkPolicy, Process, VmError};
use odf_metrics::Summary;

use crate::resp::ReplyBuf;
use crate::store::Store;

/// A key-local command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KeyOp {
    Get,
    Set,
    Del,
    Exists,
    Incr,
    Append,
}

impl KeyOp {
    /// Whether the command writes its key.
    fn writes(self) -> bool {
        !matches!(self, KeyOp::Get | KeyOp::Exists)
    }
}

/// An admin command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdminOp {
    Ping,
    Info,
    Stats,
    Probe,
}

/// A server-specific command, executed by the caller of [`execute`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ServerOp {
    Dbsize,
    Bgsave,
}

/// What a command does; the variant is its class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    Key(KeyOp),
    Admin(AdminOp),
    Server(ServerOp),
}

struct Command {
    name: &'static [u8],
    arity: RangeInclusive<usize>,
    op: Op,
}

/// The command table. Lookup is a linear scan, so the hot data commands
/// come first.
#[rustfmt::skip]
static COMMANDS: [Command; 12] = [
    Command { name: b"GET",    arity: 2..=2,           op: Op::Key(KeyOp::Get) },
    Command { name: b"SET",    arity: 3..=3,           op: Op::Key(KeyOp::Set) },
    Command { name: b"DEL",    arity: 2..=2,           op: Op::Key(KeyOp::Del) },
    Command { name: b"EXISTS", arity: 2..=2,           op: Op::Key(KeyOp::Exists) },
    Command { name: b"INCR",   arity: 2..=2,           op: Op::Key(KeyOp::Incr) },
    Command { name: b"APPEND", arity: 3..=3,           op: Op::Key(KeyOp::Append) },
    Command { name: b"PING",   arity: 1..=1,           op: Op::Admin(AdminOp::Ping) },
    Command { name: b"INFO",   arity: 1..=2,           op: Op::Admin(AdminOp::Info) },
    Command { name: b"STATS",  arity: 1..=2,           op: Op::Admin(AdminOp::Stats) },
    Command { name: b"PROBE",  arity: 2..=usize::MAX,  op: Op::Admin(AdminOp::Probe) },
    Command { name: b"DBSIZE", arity: 1..=1,           op: Op::Server(ServerOp::Dbsize) },
    Command { name: b"BGSAVE", arity: 1..=1,           op: Op::Server(ServerOp::Bgsave) },
];

/// The `BGSAVE` acknowledgement (a simple string).
pub(crate) const BGSAVE_STARTED: &str = "Background saving started";

/// The wire name of `op` (for clients encoding requests).
pub(crate) fn name(op: Op) -> &'static [u8] {
    COMMANDS
        .iter()
        .find(|c| c.op == op)
        .expect("every op has a table entry")
        .name
}

/// The snapshot facts `INFO` reports.
pub(crate) struct SnapshotInfo {
    pub fork_policy: ForkPolicy,
    pub in_progress: bool,
    /// Fork-call durations of every snapshot started, nanoseconds.
    pub fork_times: Summary,
}

/// What a serving tier supplies to [`execute`].
pub(crate) trait Host {
    /// The serving process.
    fn process(&self) -> &Process;
    /// The store owning `key`, or `Err(shard)` naming the shard that does
    /// (answered with a `-MOVED <shard>` redirect).
    fn route(&self, key: &[u8]) -> Result<Store, usize>;
    /// Snapshot facts, read only by `INFO`.
    fn snapshots(&self) -> SnapshotInfo;
}

/// What [`execute`] leaves to its caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The reply is written.
    Done,
    /// The reply is written and a write changed the keyspace.
    Changed,
    /// A key-local command failed in the store; the error reply is written.
    Failed(VmError),
    /// A server-specific command with valid arity; the caller executes it
    /// and writes the reply.
    Server(ServerOp),
}

/// Finds the table entry named by `argv[0]` (matched case-insensitively)
/// and checks its arity; `Err` is the text of the error reply.
fn lookup(argv: &[&[u8]]) -> Result<Op, String> {
    let Some(&name) = argv.first() else {
        return Err("ERR empty command".into());
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name.eq_ignore_ascii_case(name)) else {
        return Err(format!(
            "ERR unknown command '{}'",
            String::from_utf8_lossy(name)
        ));
    };
    if !cmd.arity.contains(&argv.len()) {
        return Err("ERR wrong number of arguments".into());
    }
    Ok(cmd.op)
}

/// Whether `argv` is a key-local write with valid arity: the commands a
/// durable tier journals before it executes them.
pub(crate) fn is_write(argv: &[&[u8]]) -> bool {
    matches!(lookup(argv), Ok(Op::Key(op)) if op.writes())
}

/// Executes one command (`argv[0]` is its name, matched case-insensitively),
/// writing the reply into `out`: looks the name up, checks arity, and runs
/// key-local and admin commands against `host`.
pub(crate) fn execute(host: &impl Host, argv: &[&[u8]], out: &mut ReplyBuf) -> Outcome {
    let op = match lookup(argv) {
        Ok(op) => op,
        Err(msg) => {
            out.error(&msg);
            return Outcome::Done;
        }
    };
    match op {
        Op::Key(op) => match host.route(argv[1]) {
            Ok(store) => key_op(op, host.process(), store, argv, out),
            Err(owner) => {
                out.error(&format!("MOVED {owner}"));
                Outcome::Done
            }
        },
        Op::Admin(op) => {
            admin_op(op, host, &argv[1..], out);
            Outcome::Done
        }
        Op::Server(op) => Outcome::Server(op),
    }
}

/// Writes `-ERR <e>` for a simulated-memory failure.
pub(crate) fn vm_error(e: VmError, out: &mut ReplyBuf) {
    out.error(&format!("ERR {e}"));
}

/// `DBSIZE` for a tier that serves one store.
pub(crate) fn dbsize(proc: &Process, store: Store, out: &mut ReplyBuf) {
    match store.len(proc) {
        Ok(n) => out.integer(n as i64),
        Err(e) => vm_error(e, out),
    }
}

fn key_op(op: KeyOp, proc: &Process, store: Store, argv: &[&[u8]], out: &mut ReplyBuf) -> Outcome {
    let key = argv[1];
    // `Ok(changed)` once the reply is written: whether the keyspace moved.
    let changed = match op {
        KeyOp::Get => store.get(proc, key).map(|v| {
            out.bulk(v.as_deref());
            false
        }),
        KeyOp::Set => store.set(proc, key, argv[2]).map(|()| {
            out.simple("OK");
            true
        }),
        KeyOp::Del => store
            .del(proc, key)
            .inspect(|&existed| out.integer(i64::from(existed))),
        KeyOp::Exists => store.exists(proc, key).map(|e| {
            out.integer(i64::from(e));
            false
        }),
        KeyOp::Incr => store.incr(proc, key).map(|v| {
            out.integer(v);
            true
        }),
        KeyOp::Append => store.append(proc, key, argv[2]).map(|len| {
            out.integer(len as i64);
            true
        }),
    };
    match changed {
        Ok(true) => Outcome::Changed,
        Ok(false) => Outcome::Done,
        Err(e) => {
            match op {
                KeyOp::Incr => out.error("ERR value is not an integer or out of range"),
                _ => vm_error(e, out),
            }
            Outcome::Failed(e)
        }
    }
}

fn admin_op(op: AdminOp, host: &impl Host, rest: &[&[u8]], out: &mut ReplyBuf) {
    let kernel = host.process().kernel();
    match op {
        AdminOp::Ping => out.simple("PONG"),
        AdminOp::Info => {
            let section = rest.first().map(|s| String::from_utf8_lossy(s));
            out.bulk(Some(info(host, section.as_deref()).as_bytes()));
        }
        // Kernel counters are process-global and thread-safe: every shard
        // renders (and resets) the same window.
        AdminOp::Stats => match rest {
            [] => out.bulk(Some(kernel.metrics_prometheus().as_bytes())),
            [fmt] if fmt.eq_ignore_ascii_case(b"json") => {
                out.bulk(Some(kernel.metrics_json().as_bytes()));
            }
            [sub] if sub.eq_ignore_ascii_case(b"reset") => {
                kernel.reset_metrics_window();
                out.simple("OK");
            }
            _ => out.error("ERR wrong number of arguments"),
        },
        AdminOp::Probe => probe(rest, out),
    }
}

/// Redis-`INFO`-style report. `want` filters to one section
/// (case-insensitive); `None` renders all of them.
///
/// Sections: `server` (process table, fork policy), `memory` (occupancy
/// plus the serving process's smaps totals), `persistence` (snapshot fork
/// latencies), `stats` (every kernel counter), and — when tracing is
/// enabled — `trace` (per-event-class latency table).
fn info(host: &impl Host, want: Option<&str>) -> String {
    let proc = host.process();
    let kernel = proc.kernel();
    let snaps = host.snapshots();
    let mut out = String::new();
    // Renders one section, only if it was asked for.
    let mut section = |title: &str, body: &dyn Fn() -> String| {
        if want.is_none_or(|w| w.eq_ignore_ascii_case(title)) {
            let _ = write!(out, "# {title}\r\n{}\r\n", body());
        }
    };
    section("Server", &|| {
        format!(
            "processes:{}\r\nfork_policy:{:?}\r\n",
            kernel.process_count(),
            snaps.fork_policy
        )
    });
    section("Memory", &|| {
        let smaps = proc.smaps();
        format!(
            "used_memory:{}\r\ntotal_memory:{}\r\nrss_bytes:{}\r\nshared_bytes:{}\r\nprivate_bytes:{}\r\nshared_pt_tables:{}\r\n",
            kernel.total_bytes() - kernel.free_bytes(),
            kernel.total_bytes(),
            smaps.rss(),
            smaps.shared(),
            smaps.private(),
            smaps.shared_tables(),
        )
    });
    section("Persistence", &|| {
        let f = &snaps.fork_times;
        format!(
            "bgsave_in_progress:{}\r\nsnapshots_started:{}\r\nlatest_fork_usec:{}\r\nmean_fork_usec:{}\r\n",
            u64::from(snaps.in_progress),
            f.count(),
            (f.max() / 1_000.0) as u64,
            (f.mean() / 1_000.0) as u64,
        )
    });
    section("Stats", &|| {
        let stats = kernel.stats();
        let vm = stats
            .vm
            .fields()
            .into_iter()
            .map(|(n, v)| format!("vm_{n}:{v}\r\n"));
        let pool = stats
            .pool
            .fields()
            .into_iter()
            .map(|(n, v)| format!("pool_{n}:{v}\r\n"));
        vm.chain(pool).collect()
    });
    if odf_trace::enabled() {
        section("Trace", &|| {
            let summary = odf_trace::TraceSummary::build(&odf_trace::snapshot());
            summary.render_text().replace('\n', "\r\n")
        });
    }
    out
}

/// The `PROBE` command family: live attach/detach/read of probe programs
/// against the process-wide engine.
///
/// ```text
/// PROBE LIST
/// PROBE ATTACH <name> <point> <program> [key=pid|vma|kind|order|none]
///              [pid=N] [kind=LABEL] [minlat=NS] [maxkeys=N]
/// PROBE DETACH <name>
/// PROBE READ [name]
/// PROBE RESET
/// ```
fn probe(rest: &[&[u8]], out: &mut ReplyBuf) {
    let (sub, args) = (rest[0], &rest[1..]);
    let is = |name: &[u8]| sub.eq_ignore_ascii_case(name);
    let text = |arg: &[u8]| String::from_utf8_lossy(arg).into_owned();
    let engine = odf_probe::engine();
    if is(b"LIST") {
        let probes = engine.list();
        out.array_header(probes.len());
        for (spec, hits) in probes {
            out.bulk(Some(format!("{spec} hits={hits}").as_bytes()));
        }
    } else if is(b"ATTACH") {
        let tokens: Vec<Cow<str>> = args.iter().map(|a| String::from_utf8_lossy(a)).collect();
        let tokens: Vec<&str> = tokens.iter().map(|t| t.as_ref()).collect();
        match odf_probe::ProbeSpec::parse(&tokens).and_then(|s| engine.attach(s)) {
            Ok(()) => out.simple("OK"),
            Err(msg) => out.error(&format!("ERR {msg}")),
        }
    } else if is(b"DETACH") {
        match args {
            [name] => out.integer(i64::from(engine.detach(&text(name)))),
            _ => out.error("ERR usage: PROBE DETACH <name>"),
        }
    } else if is(b"READ") {
        match args {
            [] => out.bulk(Some(odf_probe::reports_json(&engine.read_all()).as_bytes())),
            [name] => match engine.read(&text(name)) {
                Some(r) => out.bulk(Some(r.to_json().as_bytes())),
                None => out.bulk(None),
            },
            _ => out.error("ERR usage: PROBE READ [name]"),
        }
    } else if is(b"RESET") {
        engine.reset_all();
        out.simple("OK");
    } else {
        out.error("ERR PROBE LIST|ATTACH|DETACH|READ|RESET");
    }
}
