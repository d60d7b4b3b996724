//! Durable serving: WAL-journaled writes + fork-snapshot chains.
//!
//! [`DurableServer`] is the crash-consistent sibling of [`crate::Server`]
//! and serves the same command table. Every key-local write is journaled
//! as its RESP encoding — Redis's AOF format — appended to the WAL *before*
//! it touches the store (write-ahead), executed, then group-committed; the
//! returned [`Acked`] carries whether the write is already durable under
//! the configured fsync policy. Periodically (or on demand) `bgsave`
//! forks the serving process, captures the frozen image exactly as the
//! in-memory server does, publishes it to the [`ChainStore`], and
//! truncates the WAL segments the snapshot covers.
//!
//! Recovery ([`DurableServer::open`] on a non-empty directory) restores
//! the newest materializable chain into a fresh process via
//! `Kernel::restore`, re-attaches the store handle from the geometry saved
//! in the manifest metadata, and replays the WAL tail through the same
//! command executor, so a write that failed live fails the same way on
//! replay. The guarantee, as enforced by the crash-injection harness in
//! `tests/`: the recovered state equals some prefix of the write order
//! containing every acknowledged-durable write, no matter where power
//! failed.

use std::sync::Arc;

use odf_core::{ForkPolicy, Kernel, Process, SnapshotError, VmError};
use odf_durability::{
    recover, ChainStore, FsError, ManifestEntry, RecoveryReport, StorageFs, Wal, WalConfig,
};
use odf_metrics::{Stopwatch, Summary};
use odf_snapshot::{capture_delta, capture_full};
use odf_trace::Event;

use crate::command::{self, Host, Outcome, ServerOp, SnapshotInfo};
use crate::resp::{encode_command, with_argv, Execute, Parsed, RecvBuf, ReplyBuf};
use crate::server::fork_snapshot_child;
use crate::store::Store;

/// Errors from the durable serving path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PersistError {
    /// The simulated kernel rejected an operation.
    Vm(VmError),
    /// The storage backend failed (or simulated power was lost).
    Fs(FsError),
    /// Snapshot capture/restore failed.
    Snapshot(SnapshotError),
    /// A journaled record or manifest metadata did not decode.
    Corrupt(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Vm(e) => write!(f, "vm error: {e:?}"),
            PersistError::Fs(e) => write!(f, "storage error: {e}"),
            PersistError::Snapshot(e) => write!(f, "snapshot error: {e:?}"),
            PersistError::Corrupt(what) => write!(f, "corrupt durable state: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<VmError> for PersistError {
    fn from(e: VmError) -> Self {
        PersistError::Vm(e)
    }
}

impl From<FsError> for PersistError {
    fn from(e: FsError) -> Self {
        PersistError::Fs(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

/// Store geometry saved in the chain manifest's metadata field, so a
/// restored address space can be re-attached without rehashing: 3 × u64 LE
/// (heap base, heap capacity, header address).
fn store_meta(store: Store) -> Vec<u8> {
    let words = [
        store.heap().base(),
        store.heap().capacity(),
        store.header_addr(),
    ];
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Re-attaches the store whose geometry [`store_meta`] saved.
fn attach_store(meta: &[u8]) -> Option<Store> {
    let words: Vec<u64> = meta
        .chunks(8)
        .map(|w| w.try_into().ok().map(u64::from_le_bytes))
        .collect::<Option<_>>()?;
    let [heap_base, heap_capacity, header] = words[..] else {
        return None;
    };
    let heap = odf_core::UserHeap::attach(heap_base, heap_capacity);
    Some(Store::attach(heap, header))
}

/// Configuration for a [`DurableServer`].
#[derive(Clone, Copy, Debug)]
pub struct DurableConfig {
    /// Simulated heap capacity for the dataset.
    pub heap_capacity: u64,
    /// Hash bucket count.
    pub buckets: u64,
    /// Fork policy used for snapshots.
    pub fork_policy: ForkPolicy,
    /// Publish delta images after the first full one.
    pub incremental: bool,
    /// Take a snapshot after this many journaled writes (0 = never
    /// automatically).
    pub snapshot_every: u64,
    /// WAL segment size and fsync policy.
    pub wal: WalConfig,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            heap_capacity: 8 << 20,
            buckets: 256,
            fork_policy: ForkPolicy::OnDemand,
            incremental: true,
            snapshot_every: 0,
            wal: WalConfig::default(),
        }
    }
}

/// Acknowledgement for one journaled write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Acked {
    /// The write's WAL sequence number.
    pub seq: u64,
    /// Whether the write had reached stable storage when the call
    /// returned. A client that saw `durable: true` must find this write
    /// after any crash; `durable: false` writes may legally be lost.
    pub durable: bool,
}

/// A crash-consistent kvstore server: WAL + snapshot chain on a
/// [`StorageFs`], in front of the same simulated-memory [`Store`].
pub struct DurableServer {
    proc: Process,
    store: Store,
    wal: Wal,
    chain: ChainStore,
    config: DurableConfig,
    /// Writes journaled since the last snapshot.
    dirty: u64,
    /// Offset added to the process's checkpoint epoch so published epochs
    /// keep increasing across recoveries (a restored process restarts at
    /// epoch 0).
    epoch_base: u64,
    /// Fork-call durations of every snapshot, nanoseconds (for `INFO`).
    fork_times: Summary,
}

impl DurableServer {
    /// Opens (or creates) a durable store in `fs`: recovers the newest
    /// materializable snapshot chain, replays the WAL tail, and returns
    /// the live server plus the [`RecoveryReport`] saying what happened.
    pub fn open(
        kernel: &Arc<Kernel>,
        fs: Arc<dyn StorageFs>,
        config: DurableConfig,
    ) -> Result<(DurableServer, RecoveryReport), PersistError> {
        let recovered = recover::open(fs, config.wal)?;
        let report = recovered.report.clone();

        let (proc, store, epoch_base) = match recovered.image {
            Some(image) => {
                let proc = kernel.restore(&image)?;
                let store = attach_store(&recovered.meta)
                    .ok_or(PersistError::Corrupt("store geometry metadata"))?;
                let tip = report.chain_epoch.expect("image implies a chain epoch");
                (proc, store, tip + 1)
            }
            None => {
                let proc = kernel.spawn()?;
                let store = Store::create(&proc, config.heap_capacity, config.buckets)?;
                (proc, store, 0)
            }
        };

        let mut server = DurableServer {
            proc,
            store,
            wal: recovered.wal,
            chain: recovered.chain,
            config,
            dirty: 0,
            epoch_base,
            fork_times: Summary::new(),
        };

        let sw = Stopwatch::start();
        let replayed = recovered.records.len() as u64;
        let mut args = Vec::new();
        for record in &recovered.records {
            server.replay(&record.payload, &mut args)?;
        }
        if replayed > 0 {
            odf_trace::emit(Event::RecoveryReplay {
                records: replayed,
                latency_ns: sw.elapsed_ns(),
            });
        }
        odf_durability::stats()
            .recovery_records_replayed
            .add(replayed);

        Ok((server, report))
    }

    /// Re-executes one journaled write on the recovered image. Records
    /// already passed CRC, so a payload that is not exactly one complete
    /// write command means a version mismatch, not bit rot. The reply is
    /// discarded: replay reproduces the live outcome, a failed write
    /// included, and fails only on an error the live run could not have
    /// had for the same record.
    fn replay(
        &mut self,
        payload: &[u8],
        args: &mut Vec<(usize, usize)>,
    ) -> Result<(), PersistError> {
        let corrupt = PersistError::Corrupt("WAL record is not one write command");
        let mut rx = RecvBuf::new();
        rx.push(payload);
        if !matches!(rx.parse_command(args), Parsed::Cmd { used } if used == payload.len()) {
            return Err(corrupt);
        }
        let outcome = with_argv(&rx, args, |argv| {
            command::is_write(argv).then(|| command::execute(&*self, argv, &mut ReplyBuf::new()))
        });
        match outcome {
            None => Err(corrupt),
            Some(Outcome::Failed(
                e @ (VmError::Fault { .. }
                | VmError::FaultRetriesExhausted { .. }
                | VmError::NoVirtualSpace),
            )) => Err(e.into()),
            Some(_) => Ok(()),
        }
    }

    /// The serving process.
    pub fn process(&self) -> &Process {
        &self.proc
    }

    /// The store handle.
    pub fn store(&self) -> Store {
        self.store
    }

    /// Highest WAL sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.wal.durable_seq()
    }

    /// Executes one RESP command (`argv[0]` is its name) through the
    /// command table, writing its reply into `out`.
    ///
    /// A key-local write with valid arity is journaled write-ahead: its
    /// RESP encoding is appended to the WAL, then it executes, then the
    /// WAL group-commits. A crash can therefore lose the tail of
    /// *un-acknowledged* writes but never surface one the log does not
    /// hold. Such a write returns its [`Acked`] even when the store
    /// rejected it (its `-ERR` reply is in `out`): the record replays to
    /// the same failure. Every other command journals nothing and returns
    /// `Ok(None)`; `BGSAVE` runs [`DurableServer::bgsave`].
    ///
    /// A storage error, including one from the snapshot a write triggers
    /// after `snapshot_every` writes, returns `Err`; `out` then may hold
    /// the reply of a write that ran but was not committed. The wire path
    /// ([`Execute`]) replies `-ERR <error>` instead.
    pub fn execute(
        &mut self,
        argv: &[&[u8]],
        out: &mut ReplyBuf,
    ) -> Result<Option<Acked>, PersistError> {
        if !command::is_write(argv) {
            match command::execute(&*self, argv, out) {
                Outcome::Server(ServerOp::Dbsize) => command::dbsize(&self.proc, self.store, out),
                Outcome::Server(ServerOp::Bgsave) => {
                    self.bgsave()?;
                    out.simple(command::BGSAVE_STARTED);
                }
                _ => {}
            }
            return Ok(None);
        }
        let seq = self.wal.append(&encode_command(argv))?;
        command::execute(&*self, argv, out);
        let durable = self.wal.commit()?;
        self.dirty += 1;
        if self.config.snapshot_every > 0 && self.dirty >= self.config.snapshot_every {
            self.bgsave()?;
        }
        Ok(Some(Acked { seq, durable }))
    }

    /// Forces everything journaled so far to stable storage.
    pub fn sync(&mut self) -> Result<(), PersistError> {
        Ok(self.wal.sync()?)
    }

    /// Takes and publishes a snapshot now: fork, capture the frozen image
    /// (full, or a delta when configured and a base exists), atomically
    /// publish it to the chain, then truncate WAL segments it covers.
    ///
    /// Synchronous, unlike [`crate::Server::bgsave`]: the durability
    /// story needs a defined order of storage operations (and the
    /// crash-injection harness enumerates exactly that order), so the
    /// serialize step runs on the calling thread.
    pub fn bgsave(&mut self) -> Result<ManifestEntry, PersistError> {
        self.dirty = 0;
        // Every executed write is journaled first, so the fork below
        // freezes exactly the state through this sequence number.
        let wal_seq = self.wal.appended_seq();
        // The epoch advances even in full-image mode: monotone epochs keep
        // chain ordering unambiguous.
        let (child, fork_ns, child_epoch, delta) =
            fork_snapshot_child(&self.proc, self.config.fork_policy, true)?;
        self.fork_times.record(fork_ns as f64);
        let delta = delta && self.config.incremental;

        let mut image = if delta {
            capture_delta(child.mm(), child_epoch, child_epoch - 1)
        } else {
            capture_full(child.mm(), child_epoch)
        };
        child.exit();
        // Rebase the epoch so it keeps increasing across recoveries (the
        // capture ran with the process's own epoch counter, which restarts
        // at 0 after a restore).
        image.epoch = self.epoch_base + child_epoch;
        image.parent_epoch = if delta { image.epoch - 1 } else { image.epoch };

        let entry = self
            .chain
            .publish(&image, wal_seq, &store_meta(self.store))?;
        self.wal.truncate_through(wal_seq)?;
        Ok(entry)
    }

    /// Serialized dump of the live store (same format as
    /// [`Store::serialize`]) — what the crash harness diffs against its
    /// oracle.
    pub fn dump(&self) -> Result<Vec<u8>, PersistError> {
        Ok(self.store.serialize(&self.proc)?)
    }
}

impl Execute for DurableServer {
    fn execute(&mut self, argv: &[&[u8]], out: &mut ReplyBuf) {
        let mut reply = ReplyBuf::new();
        match DurableServer::execute(self, argv, &mut reply) {
            Ok(_) => out.append(&mut reply),
            Err(e) => out.error(&format!("ERR {e}")),
        }
    }
}

impl Host for DurableServer {
    fn process(&self) -> &Process {
        &self.proc
    }

    fn route(&self, _key: &[u8]) -> Result<Store, usize> {
        Ok(self.store)
    }

    fn snapshots(&self) -> SnapshotInfo {
        SnapshotInfo {
            fork_policy: self.config.fork_policy,
            // `bgsave` runs to completion on the serving thread.
            in_progress: false,
            fork_times: self.fork_times.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::serve_stream;
    use odf_durability::{CrashFs, FsyncPolicy};

    fn small_kernel() -> Arc<Kernel> {
        Kernel::new(64 << 20)
    }

    fn config() -> DurableConfig {
        DurableConfig {
            heap_capacity: 4 << 20,
            buckets: 64,
            ..DurableConfig::default()
        }
    }

    /// Executes one command, returning its reply and acknowledgement.
    fn exec(srv: &mut DurableServer, argv: &[&[u8]]) -> (String, Option<Acked>) {
        let mut reply = ReplyBuf::new();
        let ack = srv.execute(argv, &mut reply).unwrap();
        let mut bytes = Vec::new();
        reply.flush_into(&mut bytes);
        (String::from_utf8_lossy(&bytes).into_owned(), ack)
    }

    fn set(srv: &mut DurableServer, key: &[u8], value: &[u8]) -> Acked {
        let (reply, ack) = exec(srv, &[b"SET", key, value]);
        assert_eq!(reply, "+OK\r\n");
        ack.expect("a write is journaled")
    }

    fn get(srv: &DurableServer, key: &[u8]) -> Option<Vec<u8>> {
        srv.store.get(&srv.proc, key).unwrap()
    }

    #[test]
    fn acked_writes_survive_clean_reopen() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, report) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            assert_eq!(report.chain_epoch, None);
            let ack = set(&mut srv, b"alpha", b"1");
            assert!(ack.durable, "Always policy acks durably");
            assert_eq!(exec(&mut srv, &[b"INCR", b"ctr"]).0, ":1\r\n");
            assert_eq!(exec(&mut srv, &[b"APPEND", b"log", b"hello"]).0, ":5\r\n");
            assert_eq!(exec(&mut srv, &[b"DEL", b"alpha"]).0, ":1\r\n");
            // Reads, admin commands and wrong-arity writes journal nothing.
            for argv in [
                &[&b"GET"[..], b"log"][..],
                &[b"PING"],
                &[b"DBSIZE"],
                &[b"SET", b"k"],
            ] {
                assert_eq!(exec(&mut srv, argv).1, None);
            }
        }
        let (srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.wal_records_to_replay, 4);
        assert_eq!(get(&srv, b"alpha"), None);
        assert_eq!(get(&srv, b"ctr").unwrap(), b"1");
        assert_eq!(get(&srv, b"log").unwrap(), b"hello");
    }

    #[test]
    fn wal_records_are_resp_write_commands() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            set(&mut srv, b"k", b"v");
        }
        let (_, scan) = Wal::open(fs.clone(), WalConfig::default()).unwrap();
        let payloads: Vec<_> = scan.records.iter().map(|r| r.payload.clone()).collect();
        assert_eq!(payloads, [encode_command(&[b"SET", b"k", b"v"])]);

        // A record that is not exactly one write command fails recovery.
        for bad in [
            encode_command(&[b"GET", b"k"]),
            encode_command(&[b"SET", b"k"]),
            [encode_command(&[b"DEL", b"k"]), b"+".to_vec()].concat(),
            b"*2\r\n$3\r\nDEL\r\n".to_vec(),
        ] {
            let fs = Arc::new(CrashFs::new());
            let (mut wal, _) = Wal::open(fs.clone(), WalConfig::default()).unwrap();
            wal.append(&bad).unwrap();
            wal.commit().unwrap();
            assert!(matches!(
                DurableServer::open(&kernel, fs, config()),
                Err(PersistError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn failed_writes_replay_to_the_same_failure() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let live = {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            set(&mut srv, b"word", b"not-a-number");
            set(&mut srv, b"big", b"small");
            // More than the whole store heap: the store rejects it.
            let huge = vec![7u8; 4 << 20];
            let (reply, ack) = exec(&mut srv, &[b"SET", b"big", &huge]);
            assert!(reply.starts_with("-ERR"), "{reply}");
            assert!(ack.is_some(), "a failed write is still journaled");
            let (reply, ack) = exec(&mut srv, &[b"INCR", b"word"]);
            assert_eq!(reply, "-ERR value is not an integer or out of range\r\n");
            assert!(ack.is_some());
            set(&mut srv, b"after", b"1");
            srv.dump().unwrap()
        };
        for _ in 0..2 {
            let (srv, report) = DurableServer::open(&kernel, fs.clone(), config())
                .expect("a failed write must not wedge recovery");
            assert_eq!(report.wal_records_to_replay, 5);
            assert_eq!(srv.dump().unwrap(), live);
        }
    }

    #[test]
    fn bgsave_truncates_and_recovery_uses_chain_plus_tail() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            for i in 0..20u32 {
                set(&mut srv, format!("k{i}").as_bytes(), &i.to_le_bytes());
            }
            let entry = srv.bgsave().unwrap();
            assert_eq!(entry.epoch, 0);
            assert_eq!(entry.wal_seq, 20);
            // Post-snapshot writes live only in the WAL tail.
            set(&mut srv, b"tail", b"yes");
            let (reply, ack) = exec(&mut srv, &[b"BGSAVE"]);
            assert_eq!(reply, format!("+{}\r\n", command::BGSAVE_STARTED));
            assert_eq!(ack, None);
            set(&mut srv, b"tail2", b"also");
        }
        let (srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.chain_epoch, Some(1), "epochs are monotone");
        assert_eq!(report.wal_records_to_replay, 1);
        assert_eq!(get(&srv, b"k7").unwrap(), 7u32.to_le_bytes());
        assert_eq!(get(&srv, b"tail").unwrap(), b"yes");
        assert_eq!(get(&srv, b"tail2").unwrap(), b"also");
    }

    #[test]
    fn epochs_stay_monotone_across_recoveries() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        {
            let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            set(&mut srv, b"a", b"1");
            srv.bgsave().unwrap();
            set(&mut srv, b"b", b"2");
            srv.bgsave().unwrap();
        }
        {
            let (mut srv, report) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
            assert_eq!(report.chain_epoch, Some(1));
            set(&mut srv, b"c", b"3");
            // First post-recovery snapshot must be a fresh full image at a
            // *newer* epoch than the chain it restored from.
            let entry = srv.bgsave().unwrap();
            assert_eq!(entry.epoch, 2);
            assert_eq!(entry.kind, odf_core::ImageKind::Full);
        }
        let (srv, report) = DurableServer::open(&kernel, fs, config()).unwrap();
        assert_eq!(report.chain_epoch, Some(2));
        for (k, v) in [(b"a", b"1"), (b"b", b"2"), (b"c", b"3")] {
            assert_eq!(get(&srv, k).unwrap(), v);
        }
    }

    #[test]
    fn wire_path_answers_admin_commands_and_storage_errors() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let (mut srv, _) = DurableServer::open(&kernel, fs.clone(), config()).unwrap();
        let mut wire = |argv: &[&[u8]]| {
            String::from_utf8(serve_stream(&mut srv, &encode_command(argv))).unwrap()
        };
        assert_eq!(wire(&[b"PING"]), "+PONG\r\n");
        assert_eq!(wire(&[b"SET", b"k", b"v"]), "+OK\r\n");
        assert_eq!(wire(&[b"DBSIZE"]), ":1\r\n");
        assert!(wire(&[b"BGSAVE"]).starts_with('+'));
        let info = wire(&[b"INFO", b"persistence"]);
        assert!(info.contains("snapshots_started:1"), "{info}");
        assert!(wire(&[b"STATS"]).starts_with('$'));
        assert_eq!(wire(&[b"PROBE", b"READ", b"nosuchprobe"]), "$-1\r\n");
        // Power loss: the write is never acknowledged on the wire.
        fs.arm(odf_durability::CrashPlan {
            at: fs.ops(),
            mode: odf_durability::CrashMode::Before,
        });
        assert_eq!(
            wire(&[b"SET", b"k", b"w"]),
            "-ERR storage error: storage crashed (simulated power loss)\r\n"
        );
    }

    #[test]
    fn every_n_policy_reports_undurable_acks() {
        let fs = Arc::new(CrashFs::new());
        let kernel = small_kernel();
        let cfg = DurableConfig {
            wal: WalConfig {
                segment_bytes: 1 << 20,
                fsync: FsyncPolicy::EveryN(4),
            },
            ..config()
        };
        let (mut srv, _) = DurableServer::open(&kernel, fs, cfg).unwrap();
        let a1 = set(&mut srv, b"a", b"1");
        assert!(!a1.durable);
        set(&mut srv, b"b", b"2");
        set(&mut srv, b"c", b"3");
        let a4 = set(&mut srv, b"d", b"4");
        assert!(a4.durable, "4th commit crosses the EveryN(4) boundary");
        assert_eq!(srv.durable_seq(), 4);
    }
}
