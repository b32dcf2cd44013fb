//! The sharded, multi-tenant policy-inference server.
//!
//! Thread layout:
//!
//! * an **accept** thread takes connections off a non-blocking
//!   `TcpListener` and spawns one **connection** thread each; at accept
//!   time the connection is assigned a unique id and pinned to one
//!   worker shard (`conn_id % workers`), thread-per-core style — a
//!   connection's requests always flow through the same
//!   `BatchQueue` (crate-private `batcher` module), which is what preserves
//!   per-connection reply order with many workers;
//! * connection threads decode framed requests
//!   ([`crate::protocol::Message`]) out of a growing byte buffer — one
//!   `read` syscall can drain many pipelined frames — resolve the
//!   frame's tenant id against the tenant registry (cached per
//!   connection: the width check never touches the model `RwLock` on
//!   the request path, since [`ReloadError::ShapeMismatch`] guarantees
//!   a tenant's input size is immutable), run admission control, and
//!   enqueue observations into their shard's bounded queue; immediate
//!   replies (`Pong`, errors) go out through the connection's shared
//!   write half;
//! * one **batch worker per shard** pulls size-or-deadline coalesced
//!   batches, groups each flush's rows by tenant, and answers each
//!   tenant group through that tenant's [`DecisionMemo`]: rows seen
//!   before under the current model come from the memo, and the rest go
//!   through one `Mlp::forward_batch`. The worker clones each tenant's
//!   policy `Arc` **once per group**, so every response in a group is
//!   computed by exactly one policy version even while a hot-reload
//!   swaps the pointer (no torn reads), and a changed `Arc` replaces
//!   the tenant's memo, so no answer outlives its model. Replies are
//!   coalesced into one buffered write per connection, keyed by the
//!   accept-time connection id (an `O(1)` map lookup, with reply
//!   buffers reused across flushes);
//! * optional **watcher** threads (one per watched tenant) poll a
//!   checkpoint path and apply validated swaps via the same
//!   [`PolicyServer::reload_tenant_from`] path. The watcher keys on the
//!   file's `(mtime, len)` signature and commits it only after a
//!   **successful** reload, so a transiently failing read is retried
//!   on the next poll instead of being dropped until the next publish,
//!   and a same-tick republish that changes the length is still caught.
//!   (A republish with identical mtime *and* length is invisible to
//!   polling; the atomic tempfile+rename publish protocol makes that
//!   window one filesystem-timestamp granule.)
//!
//! Admission control is two-layered: the bounded queue refuses pushes
//! beyond `queue_capacity` with `ServerBusy` (hard backstop), and when
//! [`ServerConfig::max_queue_delay`] is set, a request whose estimated
//! queue delay — shard depth × an EWMA of per-request service cost —
//! exceeds the bound is shed with `Overloaded` before it is enqueued.
//! Shedding early keeps the latency of admitted requests bounded
//! instead of letting the whole queue slow down together.
//!
//! Connections may pipeline: any number of `Observe` frames can be in
//! flight at once, and replies carry the request id they answer.
//! `Observe` replies preserve per-connection request order (the shard
//! queue is FIFO, a connection never changes shards, and its worker
//! writes each flush in order), while `Pong` and error replies are
//! written immediately and may overtake queued `Action`s.
//!
//! Shutdown is graceful by construction: every shard queue is closed
//! (new work is refused with `ShuttingDown`), each worker drains its
//! queue, connection threads notice the flag at their next read
//! timeout, and `shutdown` joins them all before returning the final
//! metrics snapshot. No in-flight request is dropped, for any tenant.

use crate::batcher::{BatchQueue, PendingRequest, PushError};
use crate::metrics::{ServeMetrics, TenantMetrics};
use crate::protocol::{ErrorCode, Message, WireError, DEFAULT_TENANT};
use ctjam_dqn::checkpoint::CheckpointError;
use ctjam_dqn::policy::{DecisionMemo, GreedyPolicy};
use ctjam_nn::mlp::BatchScratch;
use ctjam_telemetry::JsonValue;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};

/// The batch worker's reply handle: the request id, the connection it
/// came from, the tenant that owns the observation, and the
/// connection's shared write half.
struct Reply {
    id: u64,
    conn: u64,
    tenant: Arc<Tenant>,
    writer: ReplyWriter,
}

/// Write half of one connection, shared between its reader thread
/// (immediate `Pong`/error replies) and its shard's batch worker
/// (`Action` replies). A mutex serializes whole frames; reads never
/// take it.
#[derive(Clone)]
struct ReplyWriter {
    stream: Arc<TcpStream>,
    guard: Arc<Mutex<()>>,
}

impl ReplyWriter {
    fn new(stream: Arc<TcpStream>) -> ReplyWriter {
        ReplyWriter {
            stream,
            guard: Arc::new(Mutex::new(())),
        }
    }

    /// Writes one frame; errors just mean the peer is gone.
    fn send(&self, msg: &Message) -> io::Result<()> {
        let _guard = self.guard.lock().expect("writer lock poisoned");
        msg.write_to(&mut (&*self.stream))
    }

    /// Writes pre-encoded frames in one syscall (the batch worker
    /// coalesces every reply a flush owes one connection).
    fn send_bytes(&self, frames: &[u8]) -> io::Result<()> {
        use io::Write;
        let _guard = self.guard.lock().expect("writer lock poisoned");
        (&*self.stream).write_all(frames)
    }
}

/// Tunables for one [`PolicyServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Flush a batch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Flush at most this long after the oldest queued request arrived.
    pub max_wait: Duration,
    /// Bound on queued requests **per worker shard**; pushes beyond it
    /// get `ServerBusy`.
    pub queue_capacity: usize,
    /// Read timeout on connections (shutdown-notice latency) and the
    /// checkpoint watchers' poll interval.
    pub poll_interval: Duration,
    /// Batch workers (= shards). `0` resolves to
    /// `std::thread::available_parallelism()` at bind time. Worker
    /// count never changes which action an observation gets — only how
    /// requests are queued — so any value is behaviorally identical.
    pub workers: usize,
    /// Queue-delay SLO: shed a request with `Overloaded` when its
    /// shard's estimated queue delay (depth × EWMA service cost per
    /// request) already exceeds this bound. `None` (the default)
    /// disables shedding; the bounded queue's `ServerBusy` backstop
    /// always applies. No request is shed before a shard's first flush
    /// establishes a cost estimate.
    pub max_queue_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            queue_capacity: 1024,
            poll_interval: Duration::from_millis(25),
            workers: 0,
            max_queue_delay: None,
        }
    }
}

/// Reply-buffer cache bound per worker: above this many cached
/// connections, entries idle for [`REPLY_CACHE_KEEP`] flushes are
/// evicted (an evicted live connection is simply re-cached on its next
/// reply).
const REPLY_CACHE_LIMIT: usize = 1024;
/// Flushes a reply buffer survives without being touched once the
/// cache is over [`REPLY_CACHE_LIMIT`].
const REPLY_CACHE_KEEP: u64 = 64;

/// Why a checkpoint hot-reload was refused. In every case the tenant's
/// old policy keeps serving untouched.
#[derive(Debug)]
pub enum ReloadError {
    /// The file failed `ctjam_dqn::checkpoint` verification (I/O,
    /// magic, version, checksum, or malformed state).
    Checkpoint(CheckpointError),
    /// The new policy disagrees with the serving one on
    /// `(input_size, num_actions)` — clients would break mid-stream.
    ShapeMismatch {
        /// The serving policy's `(input_size, num_actions)`.
        expected: (usize, usize),
        /// The rejected checkpoint's `(input_size, num_actions)`.
        found: (usize, usize),
    },
    /// No tenant with the given id is registered.
    UnknownTenant(u32),
}

impl fmt::Display for ReloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReloadError::Checkpoint(e) => write!(f, "checkpoint rejected: {e}"),
            ReloadError::ShapeMismatch { expected, found } => write!(
                f,
                "shape mismatch: serving (input={}, actions={}), checkpoint (input={}, actions={})",
                expected.0, expected.1, found.0, found.1
            ),
            ReloadError::UnknownTenant(id) => write!(f, "no tenant with id {id}"),
        }
    }
}

impl std::error::Error for ReloadError {}

/// Why a tenant could not be registered.
#[derive(Debug, PartialEq, Eq)]
pub enum TenantError {
    /// A tenant with this id already exists.
    Duplicate(u32),
    /// No tenant with this id exists.
    Unknown(u32),
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::Duplicate(id) => write!(f, "tenant {id} already registered"),
            TenantError::Unknown(id) => write!(f, "no tenant with id {id}"),
        }
    }
}

impl std::error::Error for TenantError {}

/// One registered model: the swap point for hot-reloads plus the
/// tenant's own metrics. `input_size` is denormalized out of the model
/// so the per-request width check (and the connection-side cache of
/// it) never takes the model `RwLock` — [`ReloadError::ShapeMismatch`]
/// guarantees it can never change.
struct Tenant {
    id: u32,
    input_size: usize,
    model: RwLock<Arc<GreedyPolicy>>,
    metrics: Mutex<TenantMetrics>,
}

impl Tenant {
    fn current_model(&self) -> Arc<GreedyPolicy> {
        Arc::clone(&self.model.read().expect("model lock poisoned"))
    }

    fn metrics(&self) -> MutexGuard<'_, TenantMetrics> {
        self.metrics.lock().expect("tenant metrics lock poisoned")
    }
}

/// One worker's slice of the server: its request queue and the EWMA of
/// per-request service cost (nanoseconds; `0` until the first flush)
/// that backs the queue-delay SLO estimate.
struct WorkerShard {
    queue: BatchQueue<Reply>,
    ewma_ns_per_req: AtomicU64,
}

struct Shared {
    tenants: RwLock<Vec<Arc<Tenant>>>,
    shards: Vec<WorkerShard>,
    shutdown: AtomicBool,
    metrics: Mutex<ServeMetrics>,
    config: ServerConfig,
    next_conn: AtomicU64,
}

impl Shared {
    fn metrics(&self) -> MutexGuard<'_, ServeMetrics> {
        self.metrics.lock().expect("metrics lock poisoned")
    }

    fn find_tenant(&self, id: u32) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant list poisoned")
            .iter()
            .find(|t| t.id == id)
            .map(Arc::clone)
    }

    fn add_tenant(&self, id: u32, policy: GreedyPolicy) -> Result<Arc<Tenant>, TenantError> {
        let mut tenants = self.tenants.write().expect("tenant list poisoned");
        if tenants.iter().any(|t| t.id == id) {
            return Err(TenantError::Duplicate(id));
        }
        let tenant = Arc::new(Tenant {
            id,
            input_size: policy.input_size(),
            model: RwLock::new(Arc::new(policy)),
            metrics: Mutex::new(TenantMetrics::new()),
        });
        tenants.push(Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Validate-then-swap for one tenant. The new policy is fully
    /// loaded and verified before the write lock is taken, so the swap
    /// itself is a pointer store and readers only ever see a complete
    /// model.
    fn reload_tenant(&self, tenant: &Tenant, path: &Path) -> Result<(), ReloadError> {
        let loaded = match GreedyPolicy::load_checkpoint(path) {
            Ok(p) => p,
            Err(e) => {
                self.metrics().reloads_rejected.incr();
                tenant.metrics().reloads_rejected.incr();
                return Err(ReloadError::Checkpoint(e));
            }
        };
        let current = tenant.current_model();
        let expected = (current.input_size(), current.num_actions());
        let found = (loaded.input_size(), loaded.num_actions());
        if expected != found {
            self.metrics().reloads_rejected.incr();
            tenant.metrics().reloads_rejected.incr();
            return Err(ReloadError::ShapeMismatch { expected, found });
        }
        *tenant.model.write().expect("model lock poisoned") = Arc::new(loaded);
        self.metrics().reloads_ok.incr();
        tenant.metrics().reloads_ok.incr();
        Ok(())
    }
}

/// A running policy-inference server. Dropping it shuts it down; call
/// [`PolicyServer::shutdown`] to also receive the final metrics.
pub struct PolicyServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    watchers: Vec<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl PolicyServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `policy` as the default tenant
    /// ([`crate::protocol::DEFAULT_TENANT`]) — exactly what v1 clients
    /// talk to. Spawns one batch worker per configured shard.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        policy: GreedyPolicy,
        config: ServerConfig,
    ) -> io::Result<PolicyServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let worker_count = if config.workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shards = (0..worker_count)
            .map(|_| WorkerShard {
                queue: BatchQueue::new(config.queue_capacity, config.max_batch),
                ewma_ns_per_req: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            tenants: RwLock::new(Vec::new()),
            shards,
            shutdown: AtomicBool::new(false),
            metrics: Mutex::new(ServeMetrics::new()),
            config,
            next_conn: AtomicU64::new(0),
        });
        shared
            .add_tenant(DEFAULT_TENANT, policy)
            .expect("empty registry cannot collide");
        let connections = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let connections = Arc::clone(&connections);
            thread::spawn(move || accept_loop(&listener, &shared, &connections))
        };
        let workers = (0..worker_count)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || batch_worker(&shared, shard))
            })
            .collect();
        Ok(PolicyServer {
            shared,
            addr,
            accept: Some(accept),
            workers,
            watchers: Vec::new(),
            connections,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Batch workers actually running (after `workers: 0` resolution).
    pub fn worker_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Registers `policy` under tenant `id`, visible to v2 clients
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`TenantError::Duplicate`] when the id is taken.
    pub fn add_tenant(&self, id: u32, policy: GreedyPolicy) -> Result<(), TenantError> {
        self.shared.add_tenant(id, policy).map(|_| ())
    }

    /// Tenant ids currently registered, in registration order.
    pub fn tenant_ids(&self) -> Vec<u32> {
        self.shared
            .tenants
            .read()
            .expect("tenant list poisoned")
            .iter()
            .map(|t| t.id)
            .collect()
    }

    /// Validates the checkpoint at `path` and atomically swaps it into
    /// the default tenant. Connections are never dropped: in-flight
    /// batches finish on the policy they started with, later batches
    /// use the new one.
    ///
    /// # Errors
    ///
    /// [`ReloadError`] when the file is corrupt, unreadable, or shaped
    /// differently from the serving policy; the old policy keeps
    /// serving.
    pub fn reload_from(&self, path: &Path) -> Result<(), ReloadError> {
        self.reload_tenant_from(DEFAULT_TENANT, path)
    }

    /// [`PolicyServer::reload_from`] for an arbitrary tenant.
    ///
    /// # Errors
    ///
    /// [`ReloadError::UnknownTenant`] when no such tenant exists, else
    /// as [`PolicyServer::reload_from`].
    pub fn reload_tenant_from(&self, tenant: u32, path: &Path) -> Result<(), ReloadError> {
        let t = self
            .shared
            .find_tenant(tenant)
            .ok_or(ReloadError::UnknownTenant(tenant))?;
        self.shared.reload_tenant(&t, path)
    }

    /// Spawns a watcher thread for the default tenant: every
    /// `poll_interval` it stats `path`, and on a `(mtime, len)`
    /// signature change runs the same validate-then-swap as
    /// [`PolicyServer::reload_from`]. The signature is committed only
    /// on a **successful** reload, so rejected files are retried every
    /// poll until they load (or the publisher replaces them). Rejected
    /// files are counted in the metrics and the old policy keeps
    /// serving. Checkpoint writes are atomic (tempfile + rename), so a
    /// new signature always names a complete file.
    pub fn watch_checkpoint(&mut self, path: PathBuf) {
        self.watch_tenant_checkpoint(DEFAULT_TENANT, path)
            .expect("default tenant always exists");
    }

    /// [`PolicyServer::watch_checkpoint`] for an arbitrary tenant; one
    /// watcher thread per call.
    ///
    /// # Errors
    ///
    /// [`TenantError::Unknown`] when no such tenant exists.
    pub fn watch_tenant_checkpoint(
        &mut self,
        tenant: u32,
        path: PathBuf,
    ) -> Result<(), TenantError> {
        let t = self
            .shared
            .find_tenant(tenant)
            .ok_or(TenantError::Unknown(tenant))?;
        let shared = Arc::clone(&self.shared);
        self.watchers.push(thread::spawn(move || {
            let mut last_seen = file_signature(&path);
            while !shared.shutdown.load(Ordering::SeqCst) {
                thread::sleep(shared.config.poll_interval);
                let sig = file_signature(&path);
                if sig.is_some() && sig != last_seen && shared.reload_tenant(&t, &path).is_ok() {
                    // Commit only on success: a failed reload keeps the
                    // old signature, so the file is retried next poll.
                    last_seen = sig;
                }
            }
        }));
        Ok(())
    }

    /// Snapshot of the server's metrics as JSON: the global counters
    /// and histograms, plus one entry per tenant under `"tenants"`.
    pub fn metrics_json(&self) -> JsonValue {
        let mut json = self.shared.metrics().to_json();
        let mut tenants = JsonValue::object();
        for t in self
            .shared
            .tenants
            .read()
            .expect("tenant list poisoned")
            .iter()
        {
            tenants.set(&t.id.to_string(), t.metrics().to_json());
        }
        json.set("tenants", tenants);
        json
    }

    /// Mean requests per flushed batch so far, across all workers (NaN
    /// before any flush).
    pub fn mean_batch_occupancy(&self) -> f64 {
        self.shared.metrics().mean_batch_occupancy()
    }

    /// Drains and stops the server: refuses new work, answers every
    /// queued request on every shard, joins all threads, and returns
    /// the final metrics snapshot.
    pub fn shutdown(mut self) -> JsonValue {
        self.stop();
        self.metrics_json()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.connections.lock().expect("connection list poisoned"));
        for h in handles {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        for h in self.watchers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for PolicyServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The watcher's change key: `(mtime, len)`. Length catches a same-tick
/// republish that coarse filesystem timestamps would swallow, as long
/// as the two checkpoints differ in size.
fn file_signature(path: &Path) -> Option<(SystemTime, u64)> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics().connections.incr();
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle = thread::spawn(move || connection_loop(stream, conn_id, &shared));
                let mut held = connections.lock().expect("connection list poisoned");
                // Join the threads of connections that have closed, so the
                // list holds the live connections, not every one accepted.
                for done in held.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                held.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            // Transient accept failures (e.g. a peer resetting mid
            // handshake) must not kill the listener.
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Per-connection state the reader thread threads through `dispatch`:
/// the accept-time id (reply-coalescing key), the shard the connection
/// is pinned to, and the tenants it has resolved so far. The cache
/// means a steady-state request touches neither the tenant registry
/// lock nor the tenant's model lock — `Tenant::input_size` is
/// immutable.
struct ConnState {
    conn_id: u64,
    shard: usize,
    tenants: Vec<(u32, Arc<Tenant>)>,
}

impl ConnState {
    /// Resolves a tenant id, consulting the registry only on first
    /// sight. Unknown ids are not negatively cached: a tenant added
    /// after the miss is picked up on the next request.
    fn resolve(&mut self, shared: &Shared, id: u32) -> Option<Arc<Tenant>> {
        if let Some((_, t)) = self.tenants.iter().find(|(tid, _)| *tid == id) {
            return Some(Arc::clone(t));
        }
        let t = shared.find_tenant(id)?;
        self.tenants.push((id, Arc::clone(&t)));
        Some(t)
    }
}

fn connection_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let stream = Arc::new(stream);
    let writer = ReplyWriter::new(Arc::clone(&stream));
    let mut conn = ConnState {
        conn_id,
        shard: (conn_id % shared.shards.len() as u64) as usize,
        tenants: Vec::new(),
    };
    // Frames are decoded out of this buffer, so a read timeout can
    // never lose the prefix of a half-arrived frame, and one syscall
    // drains as many pipelined frames as the kernel has buffered.
    let mut buf: Vec<u8> = Vec::new();
    let mut consumed = 0usize;
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match Message::decode(&buf[consumed..]) {
            Ok((msg, used)) => {
                consumed += used;
                if !dispatch(shared, &mut conn, &writer, msg) {
                    return;
                }
                continue;
            }
            Err(WireError::Truncated) => {
                // Incomplete frame: keep the bytes, read more below.
                buf.drain(..consumed);
                consumed = 0;
            }
            Err(_) => {
                // Hostile or corrupt bytes: count it and drop the
                // connection — resynchronizing an arbitrary stream is
                // not worth the attack surface.
                shared.metrics().wire_errors.incr();
                return;
            }
        }
        match (&*stream).read(&mut chunk) {
            Ok(0) => {
                if !buf.is_empty() {
                    shared.metrics().wire_errors.incr(); // EOF mid-frame
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Handles one decoded frame; `false` closes the connection.
fn dispatch(
    shared: &Arc<Shared>,
    conn: &mut ConnState,
    writer: &ReplyWriter,
    msg: Message,
) -> bool {
    match msg {
        Message::Ping { id } => {
            shared.metrics().pings.incr();
            writer.send(&Message::Pong { id }).is_ok()
        }
        Message::Observe {
            id,
            tenant,
            observation,
        } => {
            shared.metrics().requests.incr();
            handle_observe(shared, conn, writer, id, tenant, observation)
        }
        // A response kind arriving at the server is a protocol
        // violation by the peer.
        Message::Action { .. } | Message::Pong { .. } | Message::Error { .. } => {
            shared.metrics().wire_errors.incr();
            false
        }
    }
}

/// Admission control plus enqueue; the shard's batch worker writes the
/// `Action` reply. Rejections are written here, and `ShuttingDown`
/// also closes the connection.
fn handle_observe(
    shared: &Arc<Shared>,
    conn: &mut ConnState,
    writer: &ReplyWriter,
    id: u64,
    tenant_id: u32,
    observation: Vec<f64>,
) -> bool {
    let Some(tenant) = conn.resolve(shared, tenant_id) else {
        shared.metrics().unknown_tenant.incr();
        return writer
            .send(&Message::Error {
                id,
                code: ErrorCode::UnknownTenant,
            })
            .is_ok();
    };
    tenant.metrics().requests.incr();
    if observation.len() != tenant.input_size {
        shared.metrics().bad_observations.incr();
        tenant.metrics().bad_observations.incr();
        return writer
            .send(&Message::Error {
                id,
                code: ErrorCode::BadObservation,
            })
            .is_ok();
    }
    let shard = &shared.shards[conn.shard];
    if let Some(max_delay) = shared.config.max_queue_delay {
        let ewma = shard.ewma_ns_per_req.load(Ordering::Relaxed);
        // ewma == 0 means no flush has priced a request yet; admit.
        if ewma > 0 {
            let est_ns = shard.queue.depth() as u128 * u128::from(ewma);
            if est_ns > max_delay.as_nanos() {
                shared.metrics().slo_rejections.incr();
                tenant.metrics().slo_rejections.incr();
                return writer
                    .send(&Message::Error {
                        id,
                        code: ErrorCode::Overloaded,
                    })
                    .is_ok();
            }
        }
    }
    let pending = PendingRequest {
        observation,
        enqueued: Instant::now(),
        reply: Reply {
            id,
            conn: conn.conn_id,
            tenant,
            writer: writer.clone(),
        },
    };
    match shard.queue.push(pending) {
        Ok(()) => true,
        Err(PushError::Busy) => {
            shared.metrics().busy_rejections.incr();
            writer
                .send(&Message::Error {
                    id,
                    code: ErrorCode::ServerBusy,
                })
                .is_ok()
        }
        Err(PushError::Closed) => {
            let _ = writer.send(&Message::Error {
                id,
                code: ErrorCode::ShuttingDown,
            });
            false
        }
    }
}

/// One connection's coalesced replies for the current flush. Buffers
/// are reused across flushes (cleared, capacity retained) and the map
/// is keyed by the accept-time connection id — `O(1)` per request where
/// the old `Vec` scan was `O(batch)`.
struct ReplyBuf {
    writer: ReplyWriter,
    frames: Vec<u8>,
    last_flush: u64,
}

fn batch_worker(shared: &Arc<Shared>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut pending: Vec<PendingRequest<Reply>> = Vec::new();
    let mut group_actions: Vec<usize> = Vec::new();
    let mut actions: Vec<u32> = Vec::new();
    let mut groups: Vec<(Arc<Tenant>, Vec<usize>)> = Vec::new();
    // Decision memo and forward scratch per tenant, both replaced when
    // the tenant's model Arc changes: a reload may change every action
    // and resize layers.
    let mut memos: HashMap<u32, (DecisionMemo, BatchScratch)> = HashMap::new();
    let mut replies: HashMap<u64, ReplyBuf> = HashMap::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut flush_seq: u64 = 0;
    loop {
        let alive = shard.queue.next_batch(shared.config.max_wait, &mut pending);
        if !pending.is_empty() {
            let flush_start = Instant::now();
            // Group this flush's rows by tenant: at most one forward per
            // tenant group, each answered by exactly one model version
            // (the Arc is cloned once per group), reload or not.
            groups.clear();
            for (row, p) in pending.iter().enumerate() {
                match groups
                    .iter_mut()
                    .find(|(t, _)| Arc::ptr_eq(t, &p.reply.tenant))
                {
                    Some((_, rows)) => rows.push(row),
                    None => groups.push((Arc::clone(&p.reply.tenant), vec![row])),
                }
            }
            actions.clear();
            actions.resize(pending.len(), 0);
            let mut flush_hits = 0;
            for (tenant, rows) in &groups {
                let model = tenant.current_model();
                let fresh = || (DecisionMemo::new(Arc::clone(&model)), model.scratch());
                let entry = memos.entry(tenant.id).or_insert_with(fresh);
                if !Arc::ptr_eq(entry.0.policy(), &model) {
                    *entry = fresh();
                }
                let (memo, scratch) = entry;
                let observations = rows.iter().map(|&row| pending[row].observation.as_slice());
                let hits = memo.act_greedy_batch(observations, scratch, &mut group_actions) as u64;
                flush_hits += hits;
                for (&row, &action) in rows.iter().zip(&group_actions) {
                    actions[row] = action as u32;
                }
                let now = Instant::now();
                let mut tm = tenant.metrics();
                tm.responses.add(rows.len() as u64);
                tm.memo_hits.add(hits);
                tm.memo_misses.add(rows.len() as u64 - hits);
                for &row in rows {
                    tm.latency_us
                        .record(now.duration_since(pending[row].enqueued).as_secs_f64() * 1e6);
                }
            }
            let now = Instant::now();
            {
                let mut m = shared.metrics();
                m.batches.incr();
                m.batch_size.record(pending.len() as f64);
                m.queue_depth.record(shard.queue.depth() as f64);
                m.responses.add(pending.len() as u64);
                m.memo_hits.add(flush_hits);
                m.memo_misses.add(pending.len() as u64 - flush_hits);
                for p in &pending {
                    m.latency_us
                        .record(now.duration_since(p.enqueued).as_secs_f64() * 1e6);
                }
            }
            // Price this flush for the SLO estimate: service cost per
            // request, EWMA-smoothed (α = 1/8). Socket writes are
            // excluded — a slow peer must not poison admission for the
            // whole shard.
            let service_ns = flush_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let cost = (service_ns / pending.len() as u64).max(1);
            let old = shard.ewma_ns_per_req.load(Ordering::Relaxed);
            let ewma = if old == 0 { cost } else { (7 * old + cost) / 8 };
            shard.ewma_ns_per_req.store(ewma, Ordering::Relaxed);
            // Coalesce this flush's replies in pending (arrival) order:
            // one buffered write per connection instead of one syscall
            // per request, preserving per-connection order even when a
            // connection interleaves tenants. A write failure just
            // means that connection died mid-flight; nothing to do.
            flush_seq += 1;
            touched.clear();
            for (p, &action) in pending.iter().zip(&actions) {
                let buf = replies.entry(p.reply.conn).or_insert_with(|| ReplyBuf {
                    writer: p.reply.writer.clone(),
                    frames: Vec::new(),
                    last_flush: 0,
                });
                if buf.last_flush != flush_seq {
                    buf.last_flush = flush_seq;
                    buf.frames.clear();
                    touched.push(p.reply.conn);
                }
                Message::Action {
                    id: p.reply.id,
                    action,
                }
                .encode_into(&mut buf.frames);
            }
            for conn in &touched {
                if let Some(buf) = replies.get(conn) {
                    let _ = buf.writer.send_bytes(&buf.frames);
                }
            }
            // Bound the buffer cache: connection ids are never reused,
            // so entries for closed connections would otherwise pin
            // their sockets forever.
            if replies.len() > REPLY_CACHE_LIMIT {
                replies.retain(|_, b| flush_seq - b.last_flush <= REPLY_CACHE_KEEP);
            }
        }
        if !alive {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PolicyClient;
    use ctjam_dqn::agent::DqnAgent;
    use ctjam_dqn::config::DqnConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Polls `done` until it holds, failing the test after 10 s.
    fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn closed_connection_threads_are_joined_at_the_next_accept() {
        let config = DqnConfig {
            history_len: 3,
            num_channels: 4,
            num_power_levels: 2,
            hidden: (16, 12),
            ..DqnConfig::default()
        };
        let agent = DqnAgent::new(config, &mut StdRng::seed_from_u64(1));
        let policy = GreedyPolicy::from_agent(&agent);
        let server = PolicyServer::bind("127.0.0.1:0", policy, ServerConfig::default()).unwrap();
        let held = || server.connections.lock().unwrap();
        for _ in 0..64 {
            let mut client = PolicyClient::connect(server.local_addr()).unwrap();
            client.ping().unwrap();
        }
        wait_until("all 64 connection threads exit", || {
            server.shared.metrics().connections.value == 64
                && held().iter().all(JoinHandle::is_finished)
        });
        let mut client = PolicyClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        // The open connection's thread is live once its handle is held.
        wait_until("the 65th connection's handle is held", || {
            held().iter().any(|h| !h.is_finished())
        });
        let count = held().len();
        assert!(
            count <= 2,
            "{count} connection handles held after 65 accepts"
        );
    }
}
