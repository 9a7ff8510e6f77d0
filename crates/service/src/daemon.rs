//! The resident shard-server daemon and its socket clients.
//!
//! PR 4 let N `tune-net` processes share one shard directory, but every
//! sync still rendezvoused on the directory `flock` and re-loaded /
//! re-merged the JSONL from disk. A [`Daemon`] removes that rendezvous:
//! it takes the directory's advisory [`DirLock`] **once, for its whole
//! lifetime**, owns the [`ShardedStore`] in memory, serves tuning
//! sessions over a Unix domain socket — and, since PR 6, optionally a
//! TCP listener at the same time — and batches persistence on a merge
//! interval instead of per request.
//!
//! * **Single-flock ownership** — while the daemon runs, no other writer
//!   can touch the directory (they time out with the typed
//!   [`LockError`](crate::shard::LockError)); lock-free readers keep
//!   working as always (every persist is atomic temp + rename). Because
//!   the daemon holds the flock, its own persists skip re-acquisition
//!   and re-merging entirely — an overwrite save of the authoritative
//!   in-memory state.
//! * **Cross-client dedup for free** — every client `Submit` becomes a
//!   [`TuningService`] session inside one process, so two clients
//!   requesting the same workload hit the existing
//!   fingerprint/in-flight machinery: exactly one tuning run, fanned
//!   out to every waiter (pinned cross-process by
//!   `crates/bench/tests/daemon.rs`).
//! * **One thread per connection, off the compute pool** — each
//!   accepted connection is served by its own named OS thread
//!   (`iolb-daemon-conn`), so connection I/O never competes with tuning
//!   for the rayon pool's `cores − 1` workers and a second client is
//!   answered at once whatever the core count. A blocked `Wait` *helps
//!   tune its own session's jobs* on that very thread (the session
//!   contract). Live connections are capped at [`MAX_CONNECTIONS`]: a
//!   client over the cap gets a typed `Error` reply to its first
//!   request and is disconnected — a refusal, never a hang.
//! * **Results are bit-identical** — the daemon runs the same hermetic
//!   per-workload tuning as the embedded path; `tests/daemon.rs` pins
//!   daemon-served configs against eager `tune_with_store`, and
//!   `tests/fleet.rs` pins a 3-daemon TCP fleet against the same
//!   reference.
//! * **Anti-entropy replication** — a daemon given `--peer` addresses
//!   ([`DaemonConfig::peers`]) periodically `Pull`s each peer's full
//!   store and merges it with
//!   [`ShardedStore::absorb`](crate::shard::ShardedStore::absorb) —
//!   a commutative, idempotent union (records ∪, per-fingerprint max
//!   LRU stamps, max clock), so two daemons that diverged while
//!   partitioned converge to the same store once either can reach the
//!   other. Peers that are down are skipped silently: unreachable is
//!   the *normal* state anti-entropy exists to heal.
//!
//! [`SocketBackend`] and [`TcpBackend`] are the client half — the same
//! generic [`WireBackend`] over a Unix or TCP stream. Both implement
//! [`Backend`], so everything written against the trait
//! (`iolb_cnn::time_network_with_backend`, `tune-net`) runs embedded,
//! against one daemon, or — through
//! [`FleetRouter`](crate::fleet::FleetRouter) — against a whole fleet
//! without changing a line.

use crate::fleet::PeerAddr;
use crate::service::TuningService;
use crate::session::{
    Backend, BackendError, BackendSession, StatsReport, SyncOutcome, TuneRequest,
};
use crate::shard::{DirLock, ShardLoadReport, ShardedStore};
use crate::wire::{self, Request, Response, WireError};
use iolb_gpusim::DeviceSpec;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Conventional socket file name inside a shard directory
/// (`tune-cache serve DIR` listens on `DIR/daemon.sock` by default).
pub const SOCKET_FILE: &str = "daemon.sock";

/// Daemon knobs on top of the service's own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonConfig {
    /// The tuning service the daemon embeds (budget, seed, workers,
    /// lock timeout for the startup lock, ...). Clients inherit these:
    /// budget and seed are server-side state so every client's results
    /// replay bit-identically.
    pub service: crate::service::ServiceConfig,
    /// How often the persister flushes dirty in-memory state to the
    /// shard directory. Between flushes, requests are served purely from
    /// memory — this is the "batch merges instead of per-request
    /// rendezvous" the daemon exists for. A client `Sync` forces an
    /// immediate flush; shutdown always flushes.
    pub merge_interval: Duration,
    /// How long a connection may sit idle (no request in flight) before
    /// the daemon drops it. Every connection holds a thread and a slot
    /// under [`MAX_CONNECTIONS`]; this bound is what returns the slots of
    /// idle (or hostile) clients, so they cannot hold the cap against new
    /// connections forever. Clients are short-lived CLI sessions;
    /// reconnecting is cheap.
    pub idle_timeout: Duration,
    /// When set, the daemon additionally listens on this TCP address
    /// (`host:port`; port `0` picks a free port, reported by
    /// [`Daemon::tcp_addr`]). The Unix socket always stays up — local
    /// clients and `tune-cache stop` keep working unchanged. The wire
    /// protocol is byte-identical on both transports.
    pub tcp: Option<String>,
    /// Fleet peers this daemon anti-entropy-syncs *from*: every
    /// [`peer_sync_interval`](Self::peer_sync_interval) it pulls each
    /// peer's full store and absorbs it. List every *other* daemon of
    /// the fleet; pulls are one-directional, so mutual replication needs
    /// each daemon to list its peers (the usual full-mesh spec).
    pub peers: Vec<PeerAddr>,
    /// How often the anti-entropy thread walks [`peers`](Self::peers).
    /// Convergence lag between two daemons is at most one interval per
    /// hop; shorter intervals cost one full-store transfer per peer per
    /// tick (see `docs/OPERATIONS.md` for sizing).
    pub peer_sync_interval: Duration,
    /// When set, the persister tick applies this
    /// [`EvictionPolicy`](crate::shard::EvictionPolicy)
    /// before each flush, so a long-lived daemon's store stays near
    /// `max_records` instead of growing without bound. Coldest-workload
    /// truncation that never drops a workload's best record — replay of
    /// known workloads stays exact across evictions. `None` (the
    /// default) never evicts; records dropped are counted in the
    /// `iolb_evictions_total` telemetry counter.
    pub evict: Option<crate::shard::EvictionPolicy>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            service: crate::service::ServiceConfig::default(),
            merge_interval: Duration::from_secs(1),
            idle_timeout: Duration::from_secs(30),
            tcp: None,
            peers: Vec::new(),
            peer_sync_interval: Duration::from_secs(5),
            evict: None,
        }
    }
}

/// One accepted server-side connection, whichever listener it came in
/// on. The framing layer only needs `Read + Write`, so the daemon
/// serves both transports through one handler.
enum ServerStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ServerStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        match self {
            ServerStream::Unix(s) => s.set_read_timeout(timeout),
            ServerStream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }
}

impl Read for ServerStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Unix(s) => s.read(buf),
            ServerStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ServerStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ServerStream::Unix(s) => s.write(buf),
            ServerStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ServerStream::Unix(s) => s.flush(),
            ServerStream::Tcp(s) => s.flush(),
        }
    }
}

/// State shared between the accept loops, connection handlers and the
/// persister / peer-sync threads.
struct Shared {
    shutdown: AtomicBool,
    /// Live client connections; shutdown drains to zero before the
    /// final persist.
    active: AtomicUsize,
    gate: Mutex<()>,
    /// Signalled on connection-count changes and on shutdown.
    changed: Condvar,
    /// Serializes persists. The atomic-save protocol qualifies its temp
    /// files by *pid* (enough for the cross-process protocol, where
    /// each process saves from one thread) — but the daemon persists
    /// from several threads of one process (the interval persister and
    /// any client `Sync` handler), which would share a temp path and
    /// rename each other's half-written files into place.
    persist_gate: Mutex<()>,
    /// Where the listeners live, so `request_shutdown` can poke each
    /// accept loop awake (they re-check the flag per connection).
    socket_path: PathBuf,
    tcp_addr: Option<SocketAddr>,
}

impl Shared {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        {
            let _g = self.gate.lock().expect("daemon gate poisoned");
            self.changed.notify_all();
        }
        // Wake both accept loops: each re-checks the flag per connection.
        let _ = UnixStream::connect(&self.socket_path);
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// A resident shard-server: owns a shard directory (one flock for its
/// lifetime) and serves tuning sessions over a Unix domain socket and,
/// optionally, TCP.
pub struct Daemon {
    service: TuningService,
    config: DaemonConfig,
    dir: PathBuf,
    socket_path: PathBuf,
    listener: UnixListener,
    tcp_listener: Option<TcpListener>,
    tcp_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    /// Held from bind to drop: the directory belongs to this process.
    _lock: DirLock,
}

impl Daemon {
    /// Claims the shard directory (advisory lock, held until the daemon
    /// exits), loads its records and persisted telemetry (the same
    /// restore path as [`TuningService::open`], under our lock), and
    /// binds the socket(s). A pre-existing socket file is removed only
    /// when nothing answers on it (a stale leftover from a crashed
    /// daemon); a *live* listener — e.g. another daemon given the same
    /// `--socket` path over a different directory, which our flock says
    /// nothing about — fails the bind with `AddrInUse` instead of being
    /// silently unplugged. A TCP bind failure (typically `AddrInUse`)
    /// is likewise fatal at bind time, never discovered mid-serve.
    pub fn bind(
        dir: impl AsRef<Path>,
        socket_path: impl AsRef<Path>,
        config: DaemonConfig,
    ) -> std::io::Result<(Self, ShardLoadReport)> {
        let dir = dir.as_ref().to_path_buf();
        let socket_path = socket_path.as_ref().to_path_buf();
        let lock = DirLock::acquire(&dir, config.service.lock_timeout)?;
        let (service, report) = TuningService::open(&dir, config.service)?;
        if socket_path.exists() {
            if UnixStream::connect(&socket_path).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a live daemon already listens on {}", socket_path.display()),
                ));
            }
            std::fs::remove_file(&socket_path)?;
        }
        let listener = UnixListener::bind(&socket_path)?;
        let (tcp_listener, tcp_addr) = match &config.tcp {
            Some(addr) => {
                let tcp = TcpListener::bind(addr.as_str())?;
                let local = tcp.local_addr()?;
                (Some(tcp), Some(local))
            }
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            gate: Mutex::new(()),
            changed: Condvar::new(),
            persist_gate: Mutex::new(()),
            socket_path: socket_path.clone(),
            tcp_addr,
        });
        Ok((
            Self {
                service,
                config,
                dir,
                socket_path,
                listener,
                tcp_listener,
                tcp_addr,
                shared,
                _lock: lock,
            },
            report,
        ))
    }

    /// The embedded tuning service (tests and in-process callers).
    pub fn service(&self) -> &TuningService {
        &self.service
    }

    /// The socket clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// The TCP address actually bound, when [`DaemonConfig::tcp`] was
    /// set — with the real port even if the config said `:0`.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The shard directory this daemon owns.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Serves until a client sends `Shutdown`: accepts connections on
    /// every bound listener, hands each to its own thread, keeps the
    /// persister flushing on the merge interval, and (when peers are
    /// configured) anti-entropy-pulls the fleet. On shutdown it drains
    /// live connections, does a final persist, and removes the socket
    /// file.
    pub fn run(self) -> std::io::Result<()> {
        let persister = {
            let service = self.service.clone();
            let dir = self.dir.clone();
            let shared = Arc::clone(&self.shared);
            let interval = self.config.merge_interval;
            let evict = self.config.evict;
            std::thread::Builder::new().name("iolb-daemon-persist".into()).spawn(move || {
                let mut last = None;
                loop {
                    {
                        // Sleep the whole interval unless shutting
                        // down: `changed` is also signalled by every
                        // departing connection, and a flush that starts
                        // the moment a client hangs up takes the CPU
                        // from whatever that client does next.
                        let guard = shared.gate.lock().expect("daemon gate poisoned");
                        let _ = shared
                            .changed
                            .wait_timeout_while(guard, interval, |_| {
                                !shared.shutdown.load(Ordering::SeqCst)
                            })
                            .expect("daemon gate poisoned");
                    }
                    let stop = shared.shutdown.load(Ordering::SeqCst);
                    if stop {
                        // Final flush happens after connections drain,
                        // below in run(); stop ticking.
                        break;
                    }
                    // On hosts whose pool has no background threads
                    // (single core) `kick` is a no-op, so the interval
                    // thread is the daemon's only background muscle:
                    // drain staged transfer re-tunes and abandoned batch
                    // work here, then flush what that produced. Daemons
                    // configured with zero workers opt out (the replay
                    // benchmark relies on nothing tuning behind its
                    // back).
                    if service.config().workers > 0 {
                        service.drain();
                    }
                    // Scheduled eviction rides the same tick: trim the
                    // store *before* the snapshot diff so the flush that
                    // lands on disk is the already-trimmed state (an
                    // eviction never causes a second, larger write).
                    if let Some(policy) = evict {
                        let dropped = service.evict(&policy);
                        if dropped > 0 {
                            service.telemetry().incr("iolb_evictions_total", dropped as u64);
                        }
                    }
                    let snapshot = service.snapshot();
                    if last != Some(snapshot) {
                        let (_, persisted) = persist(&service, &dir, &shared);
                        if persisted {
                            last = Some(snapshot);
                        }
                        // A failed flush leaves `last` stale, so the next
                        // tick retries instead of believing it succeeded.
                    }
                }
            })?
        };

        let peer_sync = if self.config.peers.is_empty() {
            None
        } else {
            let service = self.service.clone();
            let dir = self.dir.clone();
            let shared = Arc::clone(&self.shared);
            let peers = self.config.peers.clone();
            let interval = self.config.peer_sync_interval;
            Some(std::thread::Builder::new().name("iolb-daemon-peersync".into()).spawn(
                move || {
                    'sync: loop {
                        // Sleep in short ticks so a requested shutdown is
                        // noticed within one tick, not one sync interval.
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if shared.shutdown.load(Ordering::SeqCst) {
                                break 'sync;
                            }
                            std::thread::sleep(IDLE_TICK.min(interval));
                            slept += IDLE_TICK.min(interval);
                        }
                        let mut absorbed = 0usize;
                        for peer in &peers {
                            let pull_started = std::time::Instant::now();
                            match peer
                                .connect()
                                .map_err(BackendError::Transport)
                                .and_then(|c| c.pull())
                            {
                                Ok(store) => {
                                    let fresh = service.lock().shards.absorb(store);
                                    absorbed += fresh;
                                    let telemetry = service.telemetry();
                                    telemetry.observe_since("iolb_daemon_pull_us", pull_started);
                                    telemetry.incr("iolb_daemon_pull_absorbed_total", fresh as u64);
                                    crate::log_event!(
                                        Debug,
                                        "daemon.pull",
                                        peer = peer,
                                        absorbed = fresh,
                                    );
                                }
                                // An unreachable peer is the normal case
                                // anti-entropy exists for; try next tick.
                                Err(BackendError::Transport(_)) => {}
                                Err(e) => {
                                    crate::log_event!(
                                        Warn,
                                        "daemon.pull_failed",
                                        peer = peer,
                                        error = e,
                                    );
                                }
                            }
                        }
                        // Absorbed records change the store but not the
                        // ServiceSnapshot the interval persister diffs on,
                        // so flush them explicitly.
                        if absorbed > 0 {
                            persist(&service, &dir, &shared);
                        }
                    }
                },
            )?)
        };

        let tcp_thread = self.tcp_listener.map(|tcp| {
            let service = self.service.clone();
            let dir = self.dir.clone();
            let shared = Arc::clone(&self.shared);
            let idle_timeout = self.config.idle_timeout;
            std::thread::Builder::new()
                .name("iolb-daemon-tcp".into())
                .spawn(move || {
                    for stream in tcp.incoming() {
                        if shared.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(stream) = stream else {
                            std::thread::sleep(Duration::from_millis(50));
                            continue;
                        };
                        let _ = stream.set_nodelay(true);
                        spawn_handler(
                            ServerStream::Tcp(stream),
                            &service,
                            &dir,
                            &shared,
                            idle_timeout,
                        );
                    }
                })
                .expect("cannot spawn iolb-daemon-tcp")
        });

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else {
                // A persistent accept failure (fd exhaustion) must not
                // busy-spin a core; back off briefly and retry.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            };
            spawn_handler(
                ServerStream::Unix(stream),
                &self.service,
                &self.dir,
                &self.shared,
                self.config.idle_timeout,
            );
        }

        // Shutdown: stop accepting (both loops were woken), let
        // in-flight clients finish, then flush once.
        if let Some(t) = tcp_thread {
            t.join().expect("daemon tcp acceptor panicked");
        }
        {
            let mut guard = self.shared.gate.lock().expect("daemon gate poisoned");
            while self.shared.active.load(Ordering::SeqCst) > 0 {
                guard = self.shared.changed.wait(guard).expect("daemon gate poisoned");
            }
        }
        persister.join().expect("daemon persister panicked");
        if let Some(t) = peer_sync {
            t.join().expect("daemon peer-sync panicked");
        }
        let (_, persisted) = persist(&self.service, &self.dir, &self.shared);
        let _ = std::fs::remove_file(&self.socket_path);
        if persisted {
            Ok(())
        } else {
            // Exiting 0 here would tell orchestrators the shutdown was
            // clean while the last merge-interval's records were lost.
            Err(std::io::Error::other(format!(
                "final flush to {} failed; records tuned since the last successful persist were                  not saved",
                self.dir.display()
            )))
        }
    }
}

/// Most client connections a daemon serves at once. Each holds one OS
/// thread; a connection accepted above the cap is refused with a typed
/// `Error` reply to its first request and closed.
pub const MAX_CONNECTIONS: usize = 256;

/// Registers a connection as active and hands it to its own thread; used
/// identically by the Unix and TCP accept loops.
fn spawn_handler(
    stream: ServerStream,
    service: &TuningService,
    dir: &Path,
    shared: &Arc<Shared>,
    idle_timeout: Duration,
) {
    // Decrement even if the handler panics or the thread never starts
    // (shutdown must still drain).
    struct Departure(Arc<Shared>);
    impl Drop for Departure {
        fn drop(&mut self) {
            self.0.active.fetch_sub(1, Ordering::SeqCst);
            let _g = self.0.gate.lock().expect("daemon gate poisoned");
            self.0.changed.notify_all();
        }
    }
    let over_cap = shared.active.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS;
    let departure = Departure(Arc::clone(shared));
    let service = service.clone();
    let dir = dir.to_path_buf();
    let spawned = std::thread::Builder::new().name("iolb-daemon-conn".into()).spawn(move || {
        let shared = &departure.0;
        if over_cap {
            refuse_connection(&service, stream, shared);
        } else {
            handle_connection(&service, stream, &dir, shared, idle_timeout);
        }
    });
    if let Err(e) = spawned {
        crate::log_event!(Warn, "daemon.spawn_failed", error = e);
    }
}

/// Answers an over-cap client's first request with a typed error, then
/// drops the connection. The request is read first (under a one-second
/// deadline) so the client, which writes before it reads, always sees the
/// reply rather than a reset.
fn refuse_connection(service: &TuningService, mut stream: ServerStream, shared: &Shared) {
    service.telemetry().incr("iolb_daemon_refused_connections_total", 1);
    crate::log_event!(Warn, "daemon.connection_refused", cap = MAX_CONNECTIONS);
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err() {
        return;
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(1);
    let mut reader = DeadlineReader { stream: &mut stream, deadline, shared };
    if matches!(wire::read_frame(&mut reader), Ok(Some(_))) {
        let message = format!(
            "daemon is at its cap of {MAX_CONNECTIONS} live connections; retry when one closes"
        );
        let _ = wire::write_response(&mut stream, &Response::Error { message });
    }
}

/// Overwrite-saves the service's authoritative state into the daemon's
/// directory. No [`DirLock`] here — the daemon already holds the
/// directory's flock for its lifetime (re-acquiring on the same file
/// would deadlock against ourselves, and nobody else may write). Errors
/// are reported, not fatal to *serving* — but the returned flag is
/// honest, so a client `Sync` answers `persisted: false` and the
/// interval persister retries rather than believing the flush landed.
/// Returns `(total records, persisted ok)`.
fn persist(service: &TuningService, dir: &Path, shared: &Shared) -> (usize, bool) {
    // One persist at a time: see `Shared::persist_gate`.
    let _serialized = shared.persist_gate.lock().expect("daemon persist gate poisoned");
    let started = std::time::Instant::now();
    let outcome = match service.save_locked(dir) {
        Ok(total) => {
            crate::log_event!(Info, "daemon.persisted", records = total, dir = dir.display());
            (total, true)
        }
        Err(e) => {
            crate::log_event!(Error, "daemon.persist_failed", dir = dir.display(), error = e);
            (service.lock().shards.len(), false)
        }
    };
    service.telemetry().observe_since("iolb_daemon_persist_us", started);
    outcome
}

/// How often an idle connection handler wakes to check the shutdown
/// flag and its idle budget.
const IDLE_TICK: Duration = Duration::from_millis(250);

/// Upper bound on reading one frame once its first byte has arrived —
/// generous for local sockets, but finite, so a peer that trickles a
/// frame byte-by-byte cannot hold a connection slot forever.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);

/// A reader that enforces an *overall* deadline across however many
/// `read` calls a frame takes. The socket's own `SO_RCVTIMEO` stays at
/// [`IDLE_TICK`], so each blocked read wakes often enough to re-check
/// the deadline and the daemon's shutdown flag — without this, a peer
/// trickling bytes would reset the per-read timeout indefinitely.
struct DeadlineReader<'a> {
    stream: &'a mut ServerStream,
    deadline: std::time::Instant,
    shared: &'a Shared,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "daemon is shutting down",
                ));
            }
            if std::time::Instant::now() >= self.deadline {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame deadline exceeded",
                ));
            }
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                other => return other,
            }
        }
    }
}

/// Serves one client connection: a sequence of framed requests until
/// EOF, a transport error, the idle timeout, or `Shutdown`. Sessions
/// are per-connection; an abandoned connection's queued jobs stay in
/// the service queue at batch priority (the documented drop semantics
/// of `SessionHandle`).
///
/// A connection holds a thread and a slot under [`MAX_CONNECTIONS`], so
/// it must never sit on them indefinitely while doing nothing: between
/// requests the handler reads the next frame's 4-byte length prefix
/// *resumably* under a short read timeout (partial prefix bytes are kept across
/// ticks, so a timeout never desynchronizes the frame stream), evicting
/// the connection after [`DaemonConfig::idle_timeout`] and noticing a
/// requested shutdown within one tick.
fn handle_connection(
    service: &TuningService,
    mut stream: ServerStream,
    dir: &Path,
    shared: &Shared,
    idle_timeout: Duration,
) {
    let mut sessions = BTreeMap::new();
    let mut next_session = 0u64;
    let mut idle = Duration::ZERO;
    // Frame read/write buffers live for the whole connection: the
    // busy-loop hot path (Submit/Wait per layer) reuses their capacity
    // instead of allocating per frame.
    let mut scratch = wire::Scratch::default();
    let telemetry = service.telemetry().clone();
    telemetry.incr("iolb_daemon_connections_total", 1);
    if stream.set_read_timeout(Some(IDLE_TICK)).is_err() {
        return;
    }
    'connection: loop {
        // Resumable prefix read: idle ticks between frames, a bounded
        // patience window once a frame has started arriving.
        let mut len_buf = [0u8; 4];
        let mut filled = 0usize;
        let mut frame_deadline: Option<std::time::Instant> = None;
        let len = loop {
            match stream.read(&mut len_buf[filled..]) {
                // EOF: clean between frames, truncated inside a prefix —
                // either way the connection is over.
                Ok(0) => break 'connection,
                Ok(n) => {
                    filled += n;
                    idle = Duration::ZERO;
                    frame_deadline.get_or_insert_with(|| std::time::Instant::now() + FRAME_TIMEOUT);
                    if filled == len_buf.len() {
                        break u32::from_be_bytes(len_buf) as usize;
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break 'connection;
                    }
                    match frame_deadline {
                        Some(deadline) if std::time::Instant::now() >= deadline => {
                            break 'connection
                        }
                        Some(_) => {}
                        None => {
                            idle += IDLE_TICK;
                            if idle >= idle_timeout {
                                telemetry.incr("iolb_daemon_idle_evictions_total", 1);
                                crate::log_event!(Debug, "daemon.idle_evicted");
                                break 'connection;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break 'connection,
            }
        };
        // The payload is owed now. The socket timeout alone cannot
        // bound it — SO_RCVTIMEO is per read() call, so a peer
        // trickling one byte per tick would reset it forever; the
        // DeadlineReader enforces the frame deadline (and notices
        // shutdown) across the whole payload.
        let deadline = frame_deadline.unwrap_or_else(|| std::time::Instant::now() + FRAME_TIMEOUT);
        // Request latency is measured from the moment the frame length
        // is known (prefix complete) to the response being written —
        // idle time between frames never counts.
        let served_started = std::time::Instant::now();
        telemetry.observe("iolb_daemon_frame_bytes", len as u64);
        let request = {
            let mut reader = DeadlineReader { stream: &mut stream, deadline, shared };
            wire::read_payload_into(&mut reader, len, &mut scratch.payload)
                .and_then(|()| wire::decode_request_payload(&scratch.payload))
        };
        let request = match request {
            Ok(request) => request,
            Err(e) => {
                // A malformed client must not take the daemon down; tell
                // it what was wrong if the pipe still works, then drop it.
                let _ = wire::write_response_buffered(
                    &mut stream,
                    &Response::Error { message: e.to_string() },
                    &mut scratch,
                );
                break;
            }
        };
        let response = match request {
            Request::Submit { device, requests } => {
                let handle = service.submit(&requests, &device);
                let session = next_session;
                next_session += 1;
                let unique = handle.unique_workloads();
                sessions.insert(session, handle);
                Response::Submitted { session, unique }
            }
            Request::Wait { session } => match sessions.remove(&session) {
                // wait() helps tune this session's jobs on this thread.
                Some(handle) => Response::Results { results: handle.wait() },
                None => Response::Error { message: format!("unknown session {session}") },
            },
            Request::Sync => {
                let (total, persisted) = persist(service, dir, shared);
                Response::Synced { persisted, total }
            }
            Request::Stats => Response::Stats { metrics: service.metrics() },
            // Anti-entropy: ship a snapshot of the whole store; the
            // puller absorbs it (commutative union), so concurrent
            // tuning on either side is never lost, only re-merged.
            Request::Pull => Response::State { store: Box::new(service.lock().shards.clone()) },
            Request::Shutdown => {
                let _ = wire::write_response_buffered(&mut stream, &Response::Bye, &mut scratch);
                shared.request_shutdown();
                break;
            }
        };
        let wrote = wire::write_response_buffered(&mut stream, &response, &mut scratch);
        telemetry.observe_since("iolb_daemon_request_us", served_started);
        if wrote.is_err() {
            break;
        }
    }
}

// ---------------------------------------------------------------- client

impl From<WireError> for BackendError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => BackendError::Transport(io),
            other => BackendError::Protocol(other.to_string()),
        }
    }
}

/// The daemon client: a [`Backend`] over one connection of stream type
/// `S`. Use the [`SocketBackend`] (Unix) and [`TcpBackend`] aliases.
/// Cheap to clone (clones share the connection); requests are
/// serialized request/response pairs, so a blocked [`wait`] occupies
/// the connection — use one backend per concurrent session.
///
/// [`wait`]: BackendSession::wait
pub struct WireBackend<S> {
    // Scratch rides under the same lock as the stream: whoever holds the
    // connection owns the encode/decode buffers, so the per-call hot path
    // (submit/wait per layer) reuses capacity instead of allocating.
    stream: Arc<Mutex<(S, wire::Scratch)>>,
}

impl<S> Clone for WireBackend<S> {
    fn clone(&self) -> Self {
        Self { stream: Arc::clone(&self.stream) }
    }
}

/// [`WireBackend`] over a Unix domain socket (same-machine clients).
pub type SocketBackend = WireBackend<UnixStream>;

/// [`WireBackend`] over TCP (fleet clients and anti-entropy pulls).
pub type TcpBackend = WireBackend<TcpStream>;

impl WireBackend<UnixStream> {
    /// Connects to a daemon's Unix socket.
    pub fn connect(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            stream: Arc::new(Mutex::new((UnixStream::connect(path)?, wire::Scratch::default()))),
        })
    }
}

impl WireBackend<TcpStream> {
    /// Connects to a daemon's TCP listener. Nagle is disabled: the
    /// protocol is small request/response frames, where coalescing only
    /// adds latency.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream: Arc::new(Mutex::new((stream, wire::Scratch::default()))) })
    }
}

impl<S: Read + Write> WireBackend<S> {
    /// One request/response exchange. Daemon-reported errors surface as
    /// [`BackendError::Remote`].
    pub(crate) fn call(&self, request: &Request) -> Result<Response, BackendError> {
        self.exchange(|stream, scratch| wire::write_request_buffered(stream, request, scratch))
    }

    /// Sends the frame `write` encodes and reads the response to it, the
    /// connection held for the pair.
    fn exchange(
        &self,
        write: impl FnOnce(&mut S, &mut wire::Scratch) -> Result<(), WireError>,
    ) -> Result<Response, BackendError> {
        let mut guard = self.stream.lock().expect("wire backend poisoned");
        let (stream, scratch) = &mut *guard;
        write(stream, scratch)?;
        match wire::read_response_buffered(stream, scratch)? {
            Response::Error { message } => Err(BackendError::Remote(message)),
            response => Ok(response),
        }
    }

    /// Asks the daemon to persist and exit. The daemon finishes serving
    /// live connections, flushes once more, and removes its socket.
    pub fn shutdown(&self) -> Result<(), BackendError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(BackendError::Protocol(format!("expected Bye, got {other:?}"))),
        }
    }

    /// Fetches the daemon's full store (the anti-entropy `Pull`). The
    /// caller merges it with
    /// [`ShardedStore::absorb`](crate::shard::ShardedStore::absorb);
    /// tests also use it to observe convergence.
    pub fn pull(&self) -> Result<ShardedStore, BackendError> {
        match self.call(&Request::Pull)? {
            Response::State { store } => Ok(*store),
            other => Err(BackendError::Protocol(format!("expected State, got {other:?}"))),
        }
    }
}

/// A batch submitted over a [`WireBackend`] connection; the daemon
/// holds the real [`SessionHandle`](crate::session::SessionHandle)
/// server-side.
pub struct WireSession<S> {
    backend: WireBackend<S>,
    session: u64,
    requests: usize,
    unique: usize,
}

/// [`WireSession`] over a Unix domain socket.
pub type SocketSession = WireSession<UnixStream>;

/// [`WireSession`] over TCP.
pub type TcpSession = WireSession<TcpStream>;

impl<S: Read + Write> BackendSession for WireSession<S> {
    fn request_count(&self) -> usize {
        self.requests
    }

    fn unique_workloads(&self) -> usize {
        self.unique
    }

    fn wait(self) -> Result<Vec<Option<crate::service::ServeResult>>, BackendError> {
        match self.backend.call(&Request::Wait { session: self.session })? {
            Response::Results { results } => {
                if results.len() != self.requests {
                    return Err(BackendError::Protocol(format!(
                        "daemon returned {} result(s) for {} request(s)",
                        results.len(),
                        self.requests
                    )));
                }
                Ok(results)
            }
            other => Err(BackendError::Protocol(format!("expected Results, got {other:?}"))),
        }
    }
}

impl<S: Read + Write> Backend for WireBackend<S> {
    type Session = WireSession<S>;

    fn submit_batch(
        &self,
        requests: &[TuneRequest],
        device: &DeviceSpec,
    ) -> Result<WireSession<S>, BackendError> {
        // Encoded from the caller's slice: no owned `Request` is built.
        match self.exchange(|stream, scratch| {
            wire::write_submit_buffered(stream, device, requests, scratch)
        })? {
            Response::Submitted { session, unique } => {
                Ok(WireSession { backend: self.clone(), session, requests: requests.len(), unique })
            }
            other => Err(BackendError::Protocol(format!("expected Submitted, got {other:?}"))),
        }
    }

    fn sync(&self) -> Result<SyncOutcome, BackendError> {
        match self.call(&Request::Sync)? {
            Response::Synced { persisted, total } => Ok(SyncOutcome { persisted, total }),
            other => Err(BackendError::Protocol(format!("expected Synced, got {other:?}"))),
        }
    }

    fn stats(&self) -> Result<StatsReport, BackendError> {
        match self.call(&Request::Stats)? {
            Response::Stats { metrics } => Ok(StatsReport::from_metrics(metrics)),
            other => Err(BackendError::Protocol(format!("expected Stats, got {other:?}"))),
        }
    }
}
