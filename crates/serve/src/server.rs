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
//! * connection threads decode every complete frame of one `read` —
//!   one syscall can drain many pipelined frames — out of a growing
//!   byte buffer, writing each `Observe`'s features straight into the
//!   connection's flat row buffer
//!   ([`crate::protocol::Message`] is the codec). They resolve the
//!   frame's tenant id to an index in a per-connection cache (the width
//!   check never touches the model `RwLock`, since
//!   [`ReloadError::ShapeMismatch`] guarantees a tenant's input size is
//!   immutable), run admission control, and count requests locally. A
//!   read ends with one hand-off: the counts are published, then every
//!   admitted request — plain data: id, tenant id, row length — goes to
//!   the shard's bounded queue in one push, under one lock and one clock
//!   read, waking the worker at most once, with the connection's one
//!   reply `Arc` carried once for the whole run. Immediate replies
//!   (`Pong`, errors) go out through the connection's shared write half;
//! * one **batch worker per shard** pulls size-or-deadline coalesced
//!   batches, groups each flush's rows by tenant id (resolved through a
//!   worker-local cache), and answers each tenant group through that
//!   tenant's [`DecisionMemo`]: rows seen before under the current model
//!   come from the memo, and the rest go through one
//!   `Mlp::forward_batch`. The worker clones each tenant's policy `Arc`
//!   **once per group**, so every response in a group is computed by
//!   exactly one policy version even while a hot-reload swaps the
//!   pointer (no torn reads), and a changed `Arc` replaces the tenant's
//!   memo, so no answer outlives its model. Each request's latency is
//!   recorded once, in its tenant's histogram, under one tenant-metrics
//!   lock per group and one global lock per flush. Replies are
//!   coalesced into one buffered write per connection, keyed by the
//!   accept-time connection id and looked up once per run of requests,
//!   with reply buffers reused across flushes;
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
//! Admission control is three-layered: at accept, a connection beyond
//! `MAX_CONNECTIONS` (1024) open ones is sent `ServerBusy` and closed;
//! the bounded queue refuses requests beyond `queue_capacity` with
//! `ServerBusy` (hard backstop); and when
//! [`ServerConfig::max_queue_delay`] is set, a request whose estimated
//! queue delay — (shard depth + requests already admitted from the same
//! read) × an EWMA of per-request service cost — exceeds the bound is
//! shed with `Overloaded` before it is enqueued. Shedding early keeps
//! the latency of admitted requests bounded instead of letting the
//! whole queue slow down together.
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

use crate::batcher::{Batch, BatchQueue, PushError, Request};
use crate::metrics::{self, ServeMetrics, TenantMetrics};
use crate::protocol::{decode_frame, ErrorCode, Frame, Message, WireError, DEFAULT_TENANT};
use ctjam_dqn::checkpoint::CheckpointError;
use ctjam_dqn::policy::{DecisionMemo, GreedyPolicy};
use ctjam_nn::mlp::BatchScratch;
use ctjam_telemetry::JsonValue;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant, SystemTime};

/// One connection: its accept-time id and its socket, shared between
/// the reader thread (reads, and immediate `Pong`/error replies) and
/// its shard's batch worker (`Action` replies). A mutex serializes
/// whole frames; reads never take it. The reader holds one `Arc`, and
/// each run of requests it pushes carries one more, so the worker can
/// answer a queued run after its peer has half-closed.
struct Connection {
    id: u64,
    stream: TcpStream,
    write: Mutex<()>,
}

impl Connection {
    /// Writes one frame; errors just mean the peer is gone.
    fn send(&self, msg: &Message) -> io::Result<()> {
        self.send_bytes(&msg.encode())
    }

    /// Writes pre-encoded frames in one syscall (the batch worker
    /// coalesces every reply a flush owes one connection).
    fn send_bytes(&self, frames: &[u8]) -> io::Result<()> {
        let _guard = self.write.lock().expect("writer lock poisoned");
        (&self.stream).write_all(frames)
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
    /// shard's estimated queue delay ((depth + requests already admitted
    /// from the same read) × EWMA service cost per request) already
    /// exceeds this bound. `None` (the default) disables shedding; the
    /// bounded queue's `ServerBusy` backstop always applies. No request
    /// is shed before a shard's first flush establishes a cost
    /// estimate.
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

/// Cap on open connections, each of which holds one thread. A
/// connection accepted at the cap is sent one
/// `Error { id: 0, code: ServerBusy }`, closed, and counted in
/// `connections_refused`.
const MAX_CONNECTIONS: usize = 1024;

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
    queue: BatchQueue<Arc<Connection>>,
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
        PolicyServer::bind_capped(addr, policy, config, MAX_CONNECTIONS)
    }

    /// [`PolicyServer::bind`] with `max_connections` open connections
    /// allowed instead of [`MAX_CONNECTIONS`].
    fn bind_capped<A: ToSocketAddrs>(
        addr: A,
        policy: GreedyPolicy,
        config: ServerConfig,
        max_connections: usize,
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
            thread::spawn(move || accept_loop(&listener, &shared, &connections, max_connections))
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
        // One lock at a time, global first: a snapshot never stalls
        // every connection thread and worker at once.
        let global = self.shared.metrics().to_json();
        let tenants = self.shared.tenants.read().expect("tenant list poisoned");
        metrics::snapshot(global, tenants.iter().map(|t| (t.id, t.metrics())))
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
    max_connections: usize,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut held = connections.lock().expect("connection list poisoned");
                // Join the threads of connections that have closed, so the
                // list holds the live connections, not every one accepted.
                for done in held.extract_if(.., |h| h.is_finished()) {
                    let _ = done.join();
                }
                if held.len() >= max_connections {
                    drop(held);
                    shared.metrics().connections_refused.incr();
                    refuse_connection(&stream);
                    continue;
                }
                shared.metrics().connections.incr();
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                held.push(thread::spawn(move || {
                    connection_loop(stream, conn_id, &shared)
                }));
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

/// Turns away a connection accepted at the connection cap: one
/// `ServerBusy` error with id 0, then end of stream.
fn refuse_connection(stream: &TcpStream) {
    let refusal = Message::Error {
        id: 0,
        code: ErrorCode::ServerBusy,
    };
    let _ = refusal.write_to(&mut &*stream);
    let _ = stream.shutdown(Shutdown::Both);
}

/// A tenant one connection has resolved, with the observe requests
/// addressed to it since the connection last published its counts.
struct ConnTenant {
    tenant: Arc<Tenant>,
    requests: u64,
}

/// Per-connection state of the reader thread. Everything a read decodes
/// is counted and batched here, then handed off once per read
/// ([`ConnState::hand_off`]): admitted requests are plain
/// [`Request`]s whose features sit back to back in `rows`, and refer to
/// their tenant by id. The tenant cache means a steady-state request
/// touches neither the tenant registry lock nor the tenant's model lock
/// — `Tenant::input_size` is immutable.
struct ConnState {
    conn: Arc<Connection>,
    shard: usize,
    tenants: Vec<ConnTenant>,
    /// Observe requests read since the counts were last published.
    requests: u64,
    /// This read's admitted requests and their features.
    admitted: Vec<Request>,
    rows: Vec<f64>,
    /// The shard's queue depth, read once per read when the SLO first
    /// prices a request.
    depth: Option<usize>,
}

impl ConnState {
    /// Resolves a tenant id to its index in the cache, consulting the
    /// registry only on first sight. Unknown ids are not negatively
    /// cached: a tenant added after the miss is picked up on the next
    /// request. Tenants are never removed, so an index stays valid.
    fn resolve(&mut self, shared: &Shared, id: u32) -> Option<usize> {
        if let Some(index) = self.tenants.iter().position(|t| t.tenant.id == id) {
            return Some(index);
        }
        let tenant = shared.find_tenant(id)?;
        self.tenants.push(ConnTenant {
            tenant,
            requests: 0,
        });
        Some(self.tenants.len() - 1)
    }

    /// Handles one decoded frame; `false` closes the connection.
    fn dispatch(&mut self, shared: &Shared, frame: Frame) -> bool {
        match frame {
            Frame::Observe { id, tenant, len } => self.admit(shared, id, tenant, len),
            Frame::Other(Message::Ping { id }) => {
                self.publish(shared);
                shared.metrics().pings.incr();
                self.conn.send(&Message::Pong { id }).is_ok()
            }
            // A response kind arriving at the server is a protocol
            // violation by the peer (an observe is never `Other`).
            Frame::Other(_) => {
                shared.metrics().wire_errors.incr();
                false
            }
        }
    }

    /// Admission control for one observe request whose `len` features
    /// end `rows`: it joins the read's batch, or its features are
    /// dropped and a typed refusal is written at once.
    fn admit(&mut self, shared: &Shared, id: u64, tenant_id: u32, len: usize) -> bool {
        self.requests += 1;
        let Some(t) = self.resolve(shared, tenant_id) else {
            return self.refuse(shared, None, id, ErrorCode::UnknownTenant, len);
        };
        self.tenants[t].requests += 1;
        if len != self.tenants[t].tenant.input_size {
            return self.refuse(shared, Some(t), id, ErrorCode::BadObservation, len);
        }
        if let Some(max_delay) = shared.config.max_queue_delay {
            let shard = &shared.shards[self.shard];
            let ewma = shard.ewma_ns_per_req.load(Ordering::Relaxed);
            // ewma == 0 means no flush has priced a request yet; admit.
            // Requests this read already admitted queue ahead of this
            // one as surely as those in the shard's queue.
            if ewma > 0 {
                let depth = *self.depth.get_or_insert_with(|| shard.queue.depth());
                let ahead = (depth + self.admitted.len()) as u128;
                if ahead * u128::from(ewma) > max_delay.as_nanos() {
                    return self.refuse(shared, Some(t), id, ErrorCode::Overloaded, len);
                }
            }
        }
        self.admitted.push(Request {
            id,
            tenant: tenant_id,
            len: len as u32,
        });
        true
    }

    /// Drops a refused request's `len` features, counts the refusal
    /// (after publishing the requests counted so far, so a client that
    /// holds the error also sees its request counted), and writes the
    /// error at once; it may overtake queued `Action`s.
    fn refuse(
        &mut self,
        shared: &Shared,
        tenant: Option<usize>,
        id: u64,
        code: ErrorCode,
        len: usize,
    ) -> bool {
        self.rows.truncate(self.rows.len() - len);
        self.publish(shared);
        {
            let mut m = shared.metrics();
            match code {
                ErrorCode::UnknownTenant => m.unknown_tenant.incr(),
                ErrorCode::BadObservation => m.bad_observations.incr(),
                _ => m.slo_rejections.incr(),
            }
        }
        if let Some(t) = tenant {
            let mut tm = self.tenants[t].tenant.metrics();
            match code {
                ErrorCode::BadObservation => tm.bad_observations.incr(),
                _ => tm.slo_rejections.incr(),
            }
        }
        self.conn.send(&Message::Error { id, code }).is_ok()
    }

    /// Adds the requests counted since the last publish to the global
    /// and per-tenant `requests` counters, under their locks.
    fn publish(&mut self, shared: &Shared) {
        if self.requests == 0 {
            return;
        }
        shared
            .metrics()
            .requests
            .add(std::mem::take(&mut self.requests));
        for t in self.tenants.iter_mut().filter(|t| t.requests > 0) {
            t.tenant
                .metrics()
                .requests
                .add(std::mem::take(&mut t.requests));
        }
    }

    /// The read's one hand-off: publishes its counts, then moves every
    /// request it admitted into the shard's queue in one
    /// [`BatchQueue::push_batch`]. A refused suffix is answered in one
    /// write, `ServerBusy` beyond capacity and `ShuttingDown` once the
    /// queue is closed, which also closes the connection (`false`).
    fn hand_off(&mut self, shared: &Shared) -> bool {
        self.publish(shared);
        self.depth = None;
        if self.admitted.is_empty() {
            return true;
        }
        let queue = &shared.shards[self.shard].queue;
        let code = match queue.push_batch(&mut self.admitted, &mut self.rows, &self.conn) {
            Ok(()) => return true,
            Err(PushError::Busy) => {
                let refused = self.admitted.len() as u64;
                shared.metrics().busy_rejections.add(refused);
                ErrorCode::ServerBusy
            }
            Err(PushError::Closed) => ErrorCode::ShuttingDown,
        };
        let mut frames = Vec::new();
        for r in self.admitted.drain(..) {
            Message::Error { id: r.id, code }.encode_into(&mut frames);
        }
        self.conn.send_bytes(&frames).is_ok() && code == ErrorCode::ServerBusy
    }
}

fn connection_loop(stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let mut state = ConnState {
        conn: Arc::new(Connection {
            id: conn_id,
            stream,
            write: Mutex::new(()),
        }),
        shard: (conn_id % shared.shards.len() as u64) as usize,
        tenants: Vec::new(),
        requests: 0,
        admitted: Vec::new(),
        rows: Vec::new(),
        depth: None,
    };
    // Frames are decoded out of this buffer, so a read timeout can
    // never lose the prefix of a half-arrived frame, and one syscall
    // drains as many pipelined frames as the kernel has buffered.
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        let mut consumed = 0usize;
        let open = loop {
            match decode_frame(&buf[consumed..], &mut state.rows) {
                Ok((frame, used)) => {
                    consumed += used;
                    if !state.dispatch(shared, frame) {
                        break false;
                    }
                }
                // Incomplete frame: keep the bytes, read more below.
                Err(WireError::Truncated) => break true,
                Err(_) => {
                    // Hostile or corrupt bytes: count it and drop the
                    // connection — resynchronizing an arbitrary stream
                    // is not worth the attack surface.
                    shared.metrics().wire_errors.incr();
                    break false;
                }
            }
        };
        // Whatever the read admitted is queued before the next blocking
        // read, and before the connection closes.
        if !state.hand_off(shared) || !open {
            return;
        }
        buf.drain(..consumed);
        match (&state.conn.stream).read(&mut chunk) {
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

/// One connection's coalesced replies for the current flush. Buffers
/// are reused across flushes (cleared, capacity retained) and the map
/// is keyed by the accept-time connection id, looked up once per run of
/// requests rather than once per request.
struct ReplyBuf {
    conn: Arc<Connection>,
    frames: Vec<u8>,
    last_flush: u64,
}

/// A tenant as one batch worker sees it: the registry entry, the
/// decision memo and forward scratch of its current model (both
/// replaced when the tenant's model `Arc` changes: a reload may change
/// every action and resize layers), and this flush's rows.
struct WorkerTenant {
    tenant: Arc<Tenant>,
    memo: DecisionMemo,
    scratch: BatchScratch,
    /// This flush's rows: request index, start of its features in the
    /// batch's rows, and when its run was queued.
    rows: Vec<(usize, usize, Instant)>,
}

impl WorkerTenant {
    fn new(tenant: Arc<Tenant>) -> WorkerTenant {
        let model = tenant.current_model();
        WorkerTenant {
            scratch: model.scratch(),
            memo: DecisionMemo::new(model),
            tenant,
            rows: Vec::new(),
        }
    }
}

fn batch_worker(shared: &Arc<Shared>, shard_index: usize) {
    let shard = &shared.shards[shard_index];
    let mut batch: Batch<Arc<Connection>> = Batch::default();
    let mut group_actions: Vec<usize> = Vec::new();
    let mut actions: Vec<u32> = Vec::new();
    let mut tenants: Vec<WorkerTenant> = Vec::new();
    let mut replies: HashMap<u64, ReplyBuf> = HashMap::new();
    let mut touched: Vec<u64> = Vec::new();
    let mut flush_seq: u64 = 0;
    while shard.queue.next_batch(shared.config.max_wait, &mut batch) {
        let flush_start = Instant::now();
        // Group this flush's rows by tenant id: at most one forward per
        // tenant group, each answered by exactly one model version (the
        // Arc is cloned once per group), reload or not.
        for t in &mut tenants {
            t.rows.clear();
        }
        let (mut index, mut start) = (0, 0);
        for run in &batch.runs {
            for r in &batch.requests[index..index + run.len] {
                let t = match tenants.iter().position(|t| t.tenant.id == r.tenant) {
                    Some(found) => found,
                    None => {
                        let tenant = shared
                            .find_tenant(r.tenant)
                            .expect("admitted tenants are never removed");
                        tenants.push(WorkerTenant::new(tenant));
                        tenants.len() - 1
                    }
                };
                tenants[t].rows.push((index, start, run.enqueued));
                index += 1;
                start += r.len as usize;
            }
        }
        let served = batch.requests.len() as u64;
        actions.clear();
        actions.resize(batch.requests.len(), 0);
        let mut flush_hits = 0;
        for t in tenants.iter_mut().filter(|t| !t.rows.is_empty()) {
            let model = t.tenant.current_model();
            if !Arc::ptr_eq(t.memo.policy(), &model) {
                t.scratch = model.scratch();
                t.memo = DecisionMemo::new(model);
            }
            let width = t.tenant.input_size;
            let observations = t
                .rows
                .iter()
                .map(|&(_, start, _)| &batch.rows[start..start + width]);
            let hits = t
                .memo
                .act_greedy_batch(observations, &mut t.scratch, &mut group_actions)
                as u64;
            flush_hits += hits;
            for (&(index, _, _), &action) in t.rows.iter().zip(&group_actions) {
                actions[index] = action as u32;
            }
            // Each latency is recorded once, in its tenant's histogram;
            // the global one is their merge, made at snapshot time.
            let now = Instant::now();
            let rows = t.rows.len() as u64;
            let mut tm = t.tenant.metrics();
            tm.responses.add(rows);
            tm.memo_hits.add(hits);
            tm.memo_misses.add(rows - hits);
            for &(_, _, enqueued) in &t.rows {
                tm.latency_us
                    .record(now.duration_since(enqueued).as_secs_f64() * 1e6);
            }
        }
        let depth = shard.queue.depth();
        {
            let mut m = shared.metrics();
            m.batches.incr();
            m.batch_size.record(served as f64);
            m.queue_depth.record(depth as f64);
            m.responses.add(served);
            m.memo_hits.add(flush_hits);
            m.memo_misses.add(served - flush_hits);
        }
        // Price this flush for the SLO estimate: service cost per
        // request, EWMA-smoothed (α = 1/8). Socket writes are
        // excluded — a slow peer must not poison admission for the
        // whole shard.
        let service_ns = flush_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let cost = (service_ns / served).max(1);
        let old = shard.ewma_ns_per_req.load(Ordering::Relaxed);
        let ewma = if old == 0 { cost } else { (7 * old + cost) / 8 };
        shard.ewma_ns_per_req.store(ewma, Ordering::Relaxed);
        // Coalesce this flush's replies in arrival order, one run at a
        // time: one buffered write per connection instead of one
        // syscall per request, preserving per-connection order even
        // when a connection interleaves tenants. A write failure just
        // means that connection died mid-flight; nothing to do.
        flush_seq += 1;
        touched.clear();
        let mut index = 0;
        for run in &batch.runs {
            let buf = replies.entry(run.reply.id).or_insert_with(|| ReplyBuf {
                conn: Arc::clone(&run.reply),
                frames: Vec::new(),
                last_flush: 0,
            });
            if buf.last_flush != flush_seq {
                buf.last_flush = flush_seq;
                buf.frames.clear();
                touched.push(run.reply.id);
            }
            let requests = &batch.requests[index..index + run.len];
            for (r, &action) in requests.iter().zip(&actions[index..]) {
                Message::Action { id: r.id, action }.encode_into(&mut buf.frames);
            }
            index += run.len;
        }
        for conn in &touched {
            if let Some(buf) = replies.get(conn) {
                let _ = buf.conn.send_bytes(&buf.frames);
            }
        }
        // Bound the buffer cache: connection ids are never reused,
        // so entries for closed connections would otherwise pin
        // their sockets forever.
        if replies.len() > REPLY_CACHE_LIMIT {
            replies.retain(|_, b| flush_seq - b.last_flush <= REPLY_CACHE_KEEP);
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

    fn small_policy() -> GreedyPolicy {
        let config = DqnConfig {
            history_len: 3,
            num_channels: 4,
            num_power_levels: 2,
            hidden: (16, 12),
            ..DqnConfig::default()
        };
        let agent = DqnAgent::new(config, &mut StdRng::seed_from_u64(1));
        GreedyPolicy::from_agent(&agent)
    }

    #[test]
    fn closed_connection_threads_are_joined_at_the_next_accept() {
        let server =
            PolicyServer::bind("127.0.0.1:0", small_policy(), ServerConfig::default()).unwrap();
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

    #[test]
    fn connections_beyond_the_cap_are_refused_with_server_busy() {
        let server =
            PolicyServer::bind_capped("127.0.0.1:0", small_policy(), ServerConfig::default(), 4)
                .unwrap();
        let addr = server.local_addr();
        let mut clients: Vec<PolicyClient> = (0..4)
            .map(|_| {
                let mut client = PolicyClient::connect(addr).unwrap();
                client.ping().unwrap();
                client
            })
            .collect();
        // At the cap, a connection reads one ServerBusy (id 0), then EOF.
        for _ in 0..4 {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            match Message::read_from(&mut raw) {
                Ok(Some(Message::Error {
                    id: 0,
                    code: ErrorCode::ServerBusy,
                })) => {}
                other => panic!("expected a ServerBusy refusal, got {other:?}"),
            }
            assert!(
                matches!(Message::read_from(&mut raw), Ok(None)),
                "a refused connection must end after the refusal"
            );
        }
        // One client leaves; once its thread has finished, the next
        // accept reaps it and there is room again.
        drop(clients.pop());
        wait_until("the closed connection's thread exits", || {
            server
                .connections
                .lock()
                .unwrap()
                .iter()
                .any(JoinHandle::is_finished)
        });
        let mut late = PolicyClient::connect(addr).unwrap();
        late.ping().unwrap();
        drop(clients);
        let metrics = server.shutdown();
        let counters = metrics.get("counters").expect("counters");
        assert_eq!(counters.get("connections"), Some(&JsonValue::Num(5.0)));
        assert_eq!(
            counters.get("connections_refused"),
            Some(&JsonValue::Num(4.0))
        );
    }
}
