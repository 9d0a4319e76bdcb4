//! The multi-client server: connection handling over any [`Stream`], the
//! reactor-backed TCP accept path, and loopback connections for tests.
//!
//! ## Threading model
//!
//! TCP connections are served by a [`denova_reactor::Reactor`]: N event loops
//! (one per core by default) own every socket, decode frames as readiness
//! allows, and submit jobs to the shared [`ShardedPool`]. Workers hand each
//! reply back to the connection's owning loop through a
//! [`denova_reactor::ReplyHandle`]; the loop flushes it when the socket is
//! write-ready. A connection therefore costs per-loop state, not threads —
//! 10k mostly-idle clients are O(cores) threads, not 20k.
//!
//! Loopback connections (in-process [`crate::loopback`] pipes, which have no
//! file descriptor) and benchmark baselines (`thread_per_conn`) use the
//! legacy model: one reader thread per connection plus one writer thread
//! serializing replies off an mpsc channel. Both paths share [`classify`],
//! so a frame means exactly the same thing on either.
//!
//! ## Zero-copy writes
//!
//! Block-aligned whole-block `Write` frames skip `Request::decode` (which
//! copies the payload into a fresh `Vec`): [`decode_write_ref`] borrows the
//! offsets out of the wire frame and the job slices the frame buffer straight
//! into the filesystem write path, which carries it to the device as iovecs.
//! Counted by `svc.zero_copy_writes` vs `svc.staged_writes`.
//!
//! ## Robustness
//!
//! * **Backpressure** — at most `max_inflight_per_conn` requests of one
//!   connection may be queued or executing; past that the reactor pauses
//!   reads (the threaded path blocks the reader), which in turn backpressures
//!   the peer's TCP window. Counted in `svc.backpressure_waits`.
//! * **Structured errors** — malformed frames get a `BAD_REQUEST` reply; a
//!   panicking operation gets `INTERNAL`; nothing crosses the wire as a
//!   panic, and the connection survives both.
//! * **Graceful shutdown** — [`Server::request_shutdown`] (or a `Shutdown`
//!   request from any client) stops intake and wakes the accept path via
//!   condvar/eventfd — no sleep-polling. In-flight work replies, the pool
//!   drains, and [`Server::shutdown`] finally settles the dedup pipeline
//!   with [`Denova::drain`] so the caller can cleanly unmount.

use crate::codec::{read_frame, write_frame, FrameRead, MAX_FRAME};
use crate::pool::ShardedPool;
use crate::proto::{decode_write_ref, encode_reply, Body, Reply, Request, SvcError};
use crate::repl::{is_repl_frame, ReplMsg};
use crate::service::{FileService, ReplRole};
use crate::tenant::{Tenant, TenantRegistry};
use crate::transport::Stream;
use denova::Denova;
use denova_reactor::sys::{Epoll, EpollEvent, EventFd, EPOLLIN};
use denova_reactor::{ConnHandler, ConnIo, FrameOutcome, HandlerFactory, Reactor, ReactorConfig};
use denova_telemetry::Counter;
use parking_lot::{Condvar, Mutex, RwLock};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Callback that takes over a connection whose first frame was a
/// [`ReplMsg::Subscribe`]. Receives the stream (reader direction, clonable
/// for the ack reader), the standby's `last_seq`, and `want_snapshot`. Owns
/// the stream until it returns.
pub type ReplSink = Arc<dyn Fn(Box<dyn Stream>, u64, bool) + Send + Sync>;

/// Server tunables. The defaults match the paper-evaluation setup: 8 shards,
/// a 32-request inflight window per connection, and timeouts generous enough
/// for emulated-PM latency injection.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Worker shards (same-inode requests serialize within a shard).
    pub shards: usize,
    /// Max queued-or-executing requests per connection before the server
    /// stops pulling frames off the socket.
    pub max_inflight_per_conn: usize,
    /// Threaded path: idle-poll read timeout (also bounds how long shutdown
    /// waits for a reader to notice the stop flag). Reactor path: the event
    /// loop tick that paces stall checks.
    pub read_timeout: Duration,
    /// Threaded path: socket write timeout for reply frames. Reactor path:
    /// how long a peer may stall mid-frame or refuse replies before it is
    /// dropped.
    pub write_timeout: Duration,
    /// Reactor event loops for TCP serving; 0 means one per core.
    pub event_loops: usize,
    /// Serve TCP with the legacy two-threads-per-connection model instead of
    /// the reactor. Kept as the baseline for connection-scaling benchmarks.
    pub thread_per_conn: bool,
}

impl Default for SvcConfig {
    fn default() -> SvcConfig {
        SvcConfig {
            shards: 8,
            max_inflight_per_conn: 32,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            event_loops: 0,
            thread_per_conn: false,
        }
    }
}

/// Per-connection inflight accounting for the threaded path: the reader
/// blocks on `changed` while `count` is at the cap, and the drain path waits
/// for it to hit zero.
struct Inflight {
    count: Mutex<usize>,
    changed: Condvar,
}

struct ServerInner {
    service: Arc<FileService>,
    pool: ShardedPool,
    tenants: Arc<TenantRegistry>,
    config: SvcConfig,
    stopping: AtomicBool,
    conn_seq: AtomicU64,
    conns: Counter,
    conns_closed: Counter,
    bad_requests: Counter,
    rejected: Counter,
    backpressure_waits: Counter,
    repl_sink: RwLock<Option<ReplSink>>,
    // Threads serving loopback connections and replication handovers; the
    // reactor's connections live in its event loops instead.
    conn_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    // Shutdown wakeups: `serve` blocks on the condvar (reactor path) or on
    // epoll over the eventfd (threaded path) — never a sleep loop.
    stop_mx: Mutex<()>,
    stop_cv: Condvar,
    stop_efd: RwLock<Option<Arc<EventFd>>>,
    reactor: RwLock<Option<Reactor>>,
}

impl ServerInner {
    /// Keep `handle` for shutdown to join, dropping the handles of threads
    /// that already finished, so a long-running server holds one per live
    /// connection rather than one per connection ever attached.
    fn keep_conn_thread(&self, handle: std::thread::JoinHandle<()>) {
        let mut threads = self.conn_threads.lock();
        threads.retain(|t| !t.is_finished());
        threads.push(handle);
    }

    /// Stop intake and wake everything that might be waiting to notice:
    /// the condvar a reactor-backed `serve` blocks on, the accept loop's
    /// eventfd doorbell, and the reactor's drain machinery. Idempotent and
    /// non-blocking, so it is safe from event-loop threads.
    fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
        {
            let _guard = self.stop_mx.lock();
            self.stop_cv.notify_all();
        }
        if let Some(efd) = self.stop_efd.read().clone() {
            efd.wake();
        }
        if let Some(r) = self.reactor.read().as_ref() {
            r.drain();
        }
    }
}

/// A running file service over a mounted [`Denova`] stack.
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Build a server (spawning its worker pool) over a mounted stack.
    pub fn new(fs: Arc<Denova>, config: SvcConfig) -> Server {
        let service = Arc::new(FileService::new(fs));
        let metrics = service.metrics().clone();
        let tenants = Arc::new(TenantRegistry::new(&metrics));
        Server {
            inner: Arc::new(ServerInner {
                pool: ShardedPool::with_default_tenant(
                    config.shards,
                    &metrics,
                    tenants.default_tenant().clone(),
                ),
                tenants,
                service,
                config,
                stopping: AtomicBool::new(false),
                conn_seq: AtomicU64::new(0),
                conns: metrics.counter("svc.conns.opened"),
                conns_closed: metrics.counter("svc.conns.closed"),
                bad_requests: metrics.counter("svc.bad_requests"),
                rejected: metrics.counter("svc.rejected"),
                backpressure_waits: metrics.counter("svc.backpressure_waits"),
                repl_sink: RwLock::new(None),
                conn_threads: Mutex::new(Vec::new()),
                stop_mx: Mutex::new(()),
                stop_cv: Condvar::new(),
                stop_efd: RwLock::new(None),
                reactor: RwLock::new(None),
            }),
        }
    }

    /// The request executor (and through it, the mounted stack and metrics).
    pub fn service(&self) -> &Arc<FileService> {
        &self.inner.service
    }

    /// The tenant registry: per-tenant accounting handles and weights.
    pub fn tenants(&self) -> &Arc<TenantRegistry> {
        &self.inner.tenants
    }

    /// Install the replication sink: connections whose first frame is a
    /// [`ReplMsg::Subscribe`] are handed to `sink` instead of the request
    /// loop. With no sink installed, replication frames get `BAD_REQUEST`.
    pub fn set_repl_sink(&self, sink: Option<ReplSink>) {
        *self.inner.repl_sink.write() = sink;
    }

    /// Install (or clear) the service's replication role — see
    /// [`FileService::set_role`].
    pub fn set_role(&self, role: Option<Arc<ReplRole>>) {
        self.inner.service.set_role(role);
    }

    /// True once shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    /// Stop intake: the accept path wakes and exits, connections finish
    /// their in-flight requests and close. Idempotent; does not block.
    pub fn request_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Attach one already-accepted connection (any transport) on its own
    /// reader thread. Loopback pipes must use this path — they have no file
    /// descriptor for the reactor to poll.
    pub fn attach(&self, stream: Box<dyn Stream>) {
        let inner = self.inner.clone();
        let id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        inner.conns.inc();
        let handle = std::thread::Builder::new()
            .name(format!("svc-conn-{id}"))
            .spawn(move || {
                handle_conn(&inner, stream);
                inner.conns_closed.inc();
            })
            .expect("spawn svc connection thread");
        self.inner.keep_conn_thread(handle);
    }

    /// Register this server on an in-process [`crate::loopback::Hub`] under
    /// `addr`, so cluster harnesses can dial it by address like a TCP
    /// endpoint. Only a weak reference is held: after the server is dropped
    /// a dial yields a pipe that reads EOF, just like a dead peer.
    pub fn register_loopback(self: &Arc<Self>, hub: &crate::loopback::Hub, addr: &str) {
        let srv = Arc::downgrade(self);
        hub.register(addr, move |end| {
            if let Some(s) = srv.upgrade() {
                s.attach(Box::new(end));
            }
        });
    }

    /// Open an in-process loopback connection to this server and return the
    /// client end. Deterministic — no OS networking involved.
    pub fn connect_loopback(&self) -> crate::loopback::PipeEnd {
        let (client_end, server_end) = crate::loopback::pair();
        self.attach(Box::new(server_end));
        client_end
    }

    /// Accept TCP connections until shutdown is requested, then return.
    ///
    /// Default mode hands the listener to the reactor: accepted sockets are
    /// distributed round-robin across the event loops, and this thread just
    /// blocks on the shutdown condvar. With `thread_per_conn` set, the
    /// legacy accept loop runs here instead, parked on epoll over the
    /// listener and a shutdown eventfd. A server serves one listener at a
    /// time.
    pub fn serve(&self, listener: TcpListener) -> io::Result<()> {
        if self.inner.config.thread_per_conn {
            return self.serve_threaded(listener);
        }
        let factory = self.handler_factory();
        {
            let mut guard = self.inner.reactor.write();
            if guard.is_none() {
                *guard = Some(Reactor::start(ReactorConfig {
                    loops: self.inner.config.event_loops,
                    max_frame: MAX_FRAME,
                    stall_timeout: self.inner.config.write_timeout,
                    tick: self.inner.config.read_timeout,
                    ..Default::default()
                })?);
            }
            guard.as_ref().unwrap().add_listener(listener, factory);
        }
        // A shutdown that raced ahead of the reactor being published must
        // still drain it.
        if self.stopping() {
            if let Some(r) = self.inner.reactor.read().as_ref() {
                r.drain();
            }
        }
        let mut guard = self.inner.stop_mx.lock();
        while !self.stopping() {
            self.inner.stop_cv.wait(&mut guard);
        }
        Ok(())
    }

    fn handler_factory(&self) -> HandlerFactory {
        let inner = self.inner.clone();
        Arc::new(move || {
            inner.conn_seq.fetch_add(1, Ordering::Relaxed);
            inner.conns.inc();
            Box::new(RConn {
                inner: inner.clone(),
                tenant: inner.tenants.default_tenant().clone(),
                inflight: 0,
                pending_repl: None,
            }) as Box<dyn ConnHandler>
        })
    }

    /// The legacy accept loop: nonblocking listener, two threads per
    /// connection. Blocks on epoll over {listener, shutdown eventfd} while
    /// the port is quiet — a wakeup, not a poll, ends the wait.
    fn serve_threaded(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let efd = Arc::new(EventFd::new()?);
        *self.inner.stop_efd.write() = Some(efd.clone());
        let epoll = Epoll::new()?;
        epoll.add(efd.raw_fd(), EPOLLIN, 0)?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, 1)?;
        let mut events = [EpollEvent::zeroed(); 4];
        let result = loop {
            if self.stopping() {
                break Ok(());
            }
            match listener.accept() {
                Ok((sock, _peer)) => {
                    sock.set_nonblocking(false)?;
                    sock.set_stream_timeouts(
                        Some(self.inner.config.read_timeout),
                        Some(self.inner.config.write_timeout),
                    )?;
                    self.attach(Box::new(sock));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Sleep until the listener is readable or shutdown rings
                    // the doorbell. The eventfd counter persists, so a ring
                    // that lands before this wait still wakes it.
                    epoll.wait(&mut events, -1)?;
                    efd.drain();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        *self.inner.stop_efd.write() = None;
        result
    }

    /// Graceful shutdown: stop intake, settle every connection, stop the
    /// pool, and drain the dedup pipeline. Returns the mounted stack so the
    /// caller can unmount it cleanly.
    pub fn shutdown(self) -> Arc<Denova> {
        self.inner.begin_shutdown();
        let reactor = self.inner.reactor.write().take();
        // Threaded connections (loopback, replication handovers) finish
        // their in-flight work first — the pool must still be alive for
        // their jobs to reply. Handovers can append while we join, so loop.
        loop {
            let threads: Vec<_> = self.inner.conn_threads.lock().drain(..).collect();
            if threads.is_empty() {
                break;
            }
            for t in threads {
                let _ = t.join();
            }
        }
        // Settle the event loops while the pool is still alive: a loop may
        // be mid-frame (the Shutdown request itself), and its job must
        // still be accepted and its reply flushed before the socket closes.
        // Only then drain the pool of anything that remains.
        if let Some(r) = reactor {
            r.drain();
            r.join();
        }
        self.inner.pool.stop();
        let fs = self.inner.service.fs().clone();
        fs.drain();
        fs
    }
}

/// What one decoded frame asks of the server. Produced by [`classify`],
/// consumed by both the reactor handler and the threaded reader, so the two
/// paths cannot drift.
enum Action {
    /// Connection-scoped control traffic: reply now, no pool round-trip.
    Inline(Vec<u8>),
    /// Ship to the worker pool; `run` produces the encoded reply frame.
    Job {
        req_id: u64,
        key: u64,
        run: Box<dyn FnOnce() -> Vec<u8> + Send>,
    },
    /// Replication handover: the sink takes the stream.
    Repl {
        sink: ReplSink,
        last_seq: u64,
        want_snapshot: bool,
    },
}

/// Decode one frame into an [`Action`]. `tenant` is the connection's current
/// tenant and is swapped in place by `Hello`.
fn classify(inner: &Arc<ServerInner>, tenant: &mut Arc<Tenant>, frame: Vec<u8>) -> Action {
    if is_repl_frame(&frame) {
        let sink = inner.repl_sink.read().clone();
        return match (ReplMsg::decode(&frame), sink) {
            (
                Ok(ReplMsg::Subscribe {
                    last_seq,
                    want_snapshot,
                }),
                Some(sink),
            ) => Action::Repl {
                sink,
                last_seq,
                want_snapshot,
            },
            _ => {
                inner.bad_requests.inc();
                let reply: Reply = Err(SvcError::service(
                    SvcError::BAD_REQUEST,
                    "replication not enabled on this server",
                ));
                Action::Inline(encode_reply(0, &reply))
            }
        };
    }

    // Zero-copy fast path: block-aligned whole-block writes skip
    // `Request::decode` (which copies the payload out of the frame) — the
    // job slices the wire buffer directly into the filesystem.
    if let Some(wr) = decode_write_ref(&frame) {
        if inner.service.zero_copy_eligible(&wr) {
            let service = inner.service.clone();
            let job_tenant = tenant.clone();
            let req_id = wr.req_id;
            let key = wr.ino;
            let run = Box::new(move || {
                denova::dwq::set_thread_tenant(job_tenant.id());
                let t0 = Instant::now();
                let reply = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    service.execute_write_ref(&wr, &frame)
                }))
                .unwrap_or_else(|_| {
                    Err(SvcError::service(
                        SvcError::INTERNAL,
                        "operation panicked server-side",
                    ))
                });
                let out = encode_reply(req_id, &reply);
                job_tenant.record(
                    frame.len() as u64,
                    out.len() as u64,
                    t0.elapsed().as_nanos() as u64,
                    reply.is_ok(),
                );
                out
            });
            return Action::Job { req_id, key, run };
        }
    }

    let (req_id, req) = match Request::decode(&frame) {
        Ok(pair) => pair,
        Err(e) => {
            // Preserve the req_id when at least that much parsed, so the
            // client can fail the right pending call.
            inner.bad_requests.inc();
            let req_id = frame
                .get(..8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0);
            let reply: Reply = Err(SvcError::service(SvcError::BAD_REQUEST, e.to_string()));
            return Action::Inline(encode_reply(req_id, &reply));
        }
    };

    if matches!(req, Request::Shutdown) {
        inner.begin_shutdown();
    }

    if let Request::Hello {
        tenant: ref name,
        weight,
    } = req
    {
        // Connection-scoped control op: swap the tenant and acknowledge
        // inline. No pool round-trip — the hello affects how *later* frames
        // are scheduled, and req_id matching lets the reply overtake any
        // still-executing pipelined requests.
        *tenant = inner.tenants.get_with_weight(name, weight);
        return Action::Inline(encode_reply(req_id, &Ok(Body::Empty)));
    }

    let service = inner.service.clone();
    let key = req.shard_key();
    let job_tenant = tenant.clone();
    let req_bytes = frame.len() as u64;
    let run = Box::new(move || {
        // Tag deferred dedup work spawned by this request with the tenant,
        // so the DWQ drains fairly across tenants too.
        denova::dwq::set_thread_tenant(job_tenant.id());
        let t0 = Instant::now();
        // A panicking operation must still reply (INTERNAL) and release its
        // inflight slot, or the connection's drain would wait forever.
        let reply =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| service.execute(&req)))
                .unwrap_or_else(|_| {
                    Err(SvcError::service(
                        SvcError::INTERNAL,
                        "operation panicked server-side",
                    ))
                });
        let out = encode_reply(req_id, &reply);
        job_tenant.record(
            req_bytes,
            out.len() as u64,
            t0.elapsed().as_nanos() as u64,
            reply.is_ok(),
        );
        out
    });
    Action::Job { req_id, key, run }
}

/// The reactor-side connection handler: all state lives on the owning event
/// loop thread, so no field needs a lock.
struct RConn {
    inner: Arc<ServerInner>,
    tenant: Arc<Tenant>,
    inflight: usize,
    pending_repl: Option<(ReplSink, u64, bool)>,
}

impl ConnHandler for RConn {
    fn on_frame(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) -> FrameOutcome {
        match classify(&self.inner, &mut self.tenant, frame) {
            Action::Inline(reply) => {
                io.send(reply);
                FrameOutcome::Continue
            }
            Action::Repl {
                sink,
                last_seq,
                want_snapshot,
            } => {
                if self.inflight != 0 {
                    // The handover would strand in-flight replies; a sane
                    // standby subscribes as its first act on a fresh
                    // connection, so this is a protocol violation.
                    self.inner.bad_requests.inc();
                    let reply: Reply = Err(SvcError::service(
                        SvcError::BAD_REQUEST,
                        "Subscribe must be the first frame on a connection",
                    ));
                    io.send(encode_reply(0, &reply));
                    return FrameOutcome::Continue;
                }
                self.pending_repl = Some((sink, last_seq, want_snapshot));
                FrameOutcome::Detach
            }
            Action::Job { req_id, key, run } => {
                self.inflight += 1;
                if self.inflight >= self.inner.config.max_inflight_per_conn {
                    // Backpressure: stop decoding this connection until a
                    // reply frees a slot; the peer's TCP window absorbs the
                    // rest.
                    self.inner.backpressure_waits.inc();
                    io.pause_reads();
                }
                let handle = io.reply_handle();
                let submitted = self.inner.pool.submit_for(
                    key,
                    &self.tenant,
                    Box::new(move || handle.send(run())),
                );
                if !submitted {
                    // Pool already stopped (hard shutdown won the race):
                    // refuse politely rather than dropping the request.
                    self.inflight -= 1;
                    self.inner.rejected.inc();
                    let reply: Reply = Err(SvcError::service(
                        SvcError::SHUTTING_DOWN,
                        "server is shutting down",
                    ));
                    io.send(encode_reply(req_id, &reply));
                    return FrameOutcome::Close;
                }
                FrameOutcome::Continue
            }
        }
    }

    fn on_reply(&mut self, io: &mut ConnIo<'_>, frame: Vec<u8>) {
        self.inflight = self.inflight.saturating_sub(1);
        io.send(frame);
        if self.inflight < self.inner.config.max_inflight_per_conn {
            io.resume_reads();
        }
    }

    fn on_detach(&mut self, stream: TcpStream, residue: Vec<u8>) {
        let Some((sink, last_seq, want_snapshot)) = self.pending_repl.take() else {
            return;
        };
        let _ = stream.set_stream_timeouts(
            Some(self.inner.config.read_timeout),
            Some(self.inner.config.write_timeout),
        );
        // Any bytes the reactor read past the Subscribe frame must reach the
        // sink before fresh socket reads do.
        let boxed: Box<dyn Stream> = if residue.is_empty() {
            Box::new(stream)
        } else {
            Box::new(PrefixedStream::new(residue, stream))
        };
        let inner = self.inner.clone();
        let handle = std::thread::Builder::new()
            .name("svc-repl-conn".into())
            .spawn(move || {
                sink(boxed, last_seq, want_snapshot);
                inner.conns_closed.inc();
            })
            .expect("spawn svc replication connection thread");
        self.inner.keep_conn_thread(handle);
    }

    fn on_close(&mut self) {
        self.inner.conns_closed.inc();
    }

    fn drained(&self) -> bool {
        self.inflight == 0
    }
}

/// A [`Stream`] that replays a byte prefix before reading the socket — used
/// to hand a detached connection (plus the reactor's unconsumed read buffer)
/// to the replication sink without losing bytes. The prefix cursor is shared
/// across clones, mirroring TCP `try_clone` semantics.
struct PrefixedStream {
    prefix: Arc<Mutex<(Vec<u8>, usize)>>,
    sock: TcpStream,
}

impl PrefixedStream {
    fn new(prefix: Vec<u8>, sock: TcpStream) -> PrefixedStream {
        PrefixedStream {
            prefix: Arc::new(Mutex::new((prefix, 0))),
            sock,
        }
    }
}

impl Read for PrefixedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        {
            let mut guard = self.prefix.lock();
            let (bytes, cursor) = &mut *guard;
            if *cursor < bytes.len() {
                let n = (bytes.len() - *cursor).min(buf.len());
                buf[..n].copy_from_slice(&bytes[*cursor..*cursor + n]);
                *cursor += n;
                return Ok(n);
            }
        }
        self.sock.read(buf)
    }
}

impl Write for PrefixedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.sock.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.sock.flush()
    }
}

impl Stream for PrefixedStream {
    fn try_clone_stream(&self) -> io::Result<Box<dyn Stream>> {
        Ok(Box::new(PrefixedStream {
            prefix: self.prefix.clone(),
            sock: self.sock.try_clone()?,
        }))
    }

    fn set_stream_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> io::Result<()> {
        self.sock.set_stream_timeouts(read, write)
    }

    fn shutdown_stream(&self) {
        self.sock.shutdown_stream();
    }
}

/// The threaded connection loop: a blocking reader plus a writer thread
/// serializing replies off an mpsc channel. Shares [`classify`] with the
/// reactor path.
fn handle_conn(inner: &Arc<ServerInner>, stream: Box<dyn Stream>) {
    let _ = stream.set_stream_timeouts(
        Some(inner.config.read_timeout),
        Some(inner.config.write_timeout),
    );
    let mut reader = stream;
    let writer = match reader.try_clone_stream() {
        Ok(w) => w,
        Err(_) => return,
    };

    // Writer thread: the only place reply frames touch the stream, so reply
    // bytes from concurrent shards never interleave.
    let (reply_tx, reply_rx) = mpsc::channel::<Vec<u8>>();
    let writer_thread = std::thread::spawn(move || {
        let mut writer = writer;
        for frame in reply_rx {
            if write_frame(&mut writer, &frame).is_err() {
                // Client gone or stalled past the write timeout: tear down
                // both directions so the reader exits too, then discard the
                // rest of the backlog.
                writer.shutdown_stream();
                break;
            }
        }
    });

    let inflight = Arc::new(Inflight {
        count: Mutex::new(0),
        changed: Condvar::new(),
    });

    // The connection's tenant: default until a Hello says otherwise. Every
    // request is accounted to (and scheduled under) the tenant in effect
    // when its frame was read.
    let mut tenant: Arc<Tenant> = inner.tenants.default_tenant().clone();

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(FrameRead::Frame(f)) => f,
            Ok(FrameRead::Idle) => {
                if inner.stopping.load(Ordering::Acquire) {
                    break;
                }
                continue;
            }
            Ok(FrameRead::Eof) | Err(_) => break,
        };

        match classify(inner, &mut tenant, frame) {
            Action::Inline(reply) => {
                if reply_tx.send(reply).is_err() {
                    break;
                }
            }
            Action::Repl {
                sink,
                last_seq,
                want_snapshot,
            } => {
                // Replication handover: settle the request machinery first
                // (in-flight requests reply, the writer thread flushes and
                // exits) so the sink owns the stream alone.
                {
                    let mut count = inflight.count.lock();
                    while *count > 0 {
                        inflight.changed.wait(&mut count);
                    }
                }
                drop(reply_tx);
                let _ = writer_thread.join();
                sink(reader, last_seq, want_snapshot);
                return;
            }
            Action::Job { req_id, key, run } => {
                // Backpressure: cap this connection's queued-or-executing
                // requests.
                {
                    let mut count = inflight.count.lock();
                    if *count >= inner.config.max_inflight_per_conn {
                        inner.backpressure_waits.inc();
                        while *count >= inner.config.max_inflight_per_conn {
                            inflight.changed.wait(&mut count);
                        }
                    }
                    *count += 1;
                }
                let tx = reply_tx.clone();
                let job_inflight = inflight.clone();
                let submitted = inner.pool.submit_for(
                    key,
                    &tenant,
                    Box::new(move || {
                        let _ = tx.send(run());
                        let mut count = job_inflight.count.lock();
                        *count -= 1;
                        job_inflight.changed.notify_all();
                    }),
                );
                if !submitted {
                    inner.rejected.inc();
                    let reply: Reply = Err(SvcError::service(
                        SvcError::SHUTTING_DOWN,
                        "server is shutting down",
                    ));
                    let _ = reply_tx.send(encode_reply(req_id, &reply));
                    let mut count = inflight.count.lock();
                    *count -= 1;
                    inflight.changed.notify_all();
                    break;
                }
            }
        }
    }

    // Drain: wait until every in-flight request for this connection has
    // replied, so closing the writer cannot drop queued replies.
    {
        let mut count = inflight.count.lock();
        while *count > 0 {
            inflight.changed.wait(&mut count);
        }
    }
    drop(reply_tx); // writer thread's `for` loop ends once the backlog flushes
    let _ = writer_thread.join();
    reader.shutdown_stream();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::Body;
    use denova::DedupMode;
    use denova_nova::NovaOptions;
    use denova_pmem::PmemDevice;

    fn server() -> Server {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
            DedupMode::Immediate,
        )
        .unwrap();
        Server::new(Arc::new(fs), SvcConfig::default())
    }

    #[test]
    fn loopback_round_trip() {
        let srv = server();
        let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
        client.ping().unwrap();
        let ino = client.create("hello.txt").unwrap();
        assert_eq!(client.write_at(ino, 0, b"hi there").unwrap(), 8);
        assert_eq!(client.read_at(ino, 0, 8).unwrap(), b"hi there");
        let st = client.stat(ino).unwrap();
        assert_eq!(st.size, 8);
        assert_eq!(client.list().unwrap(), vec!["hello.txt".to_string()]);
        client.unlink("hello.txt").unwrap();
        drop(client);
        srv.shutdown();
    }

    #[test]
    fn finished_connection_threads_are_reaped() {
        let srv = server();
        let closed = srv.inner.conns_closed.clone();
        for i in 1..=64 {
            let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
            client.ping().unwrap();
            drop(client);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while closed.get() < i {
                assert!(
                    std::time::Instant::now() < deadline,
                    "connection {i} never closed"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        // Only threads still exiting when a later connection arrived remain.
        assert!(srv.inner.conn_threads.lock().len() <= 4);
        srv.shutdown();
    }

    #[test]
    fn hello_switches_tenant_accounting() {
        let srv = server();
        let mut client = Client::from_stream(Box::new(srv.connect_loopback()));
        client.hello("acme", 2).unwrap();
        assert_eq!(srv.tenants().get("acme").weight(), 2);
        let ino = client.create("f").unwrap();
        client.write_at(ino, 0, &[7u8; 4096]).unwrap();
        let snap = srv.service().metrics().snapshot();
        assert!(snap.counter("svc.tenant.acme.ops").unwrap_or(0) >= 2);
        assert!(snap.counter("svc.tenant.acme.bytes_in").unwrap_or(0) >= 4096);
        assert!(snap.histogram("svc.tenant.acme.request.ns").unwrap().count >= 2);
        // Untenanted connections account to the default tenant.
        let mut plain = Client::from_stream(Box::new(srv.connect_loopback()));
        plain.ping().unwrap();
        let snap = srv.service().metrics().snapshot();
        assert!(snap.counter("svc.tenant.default.ops").unwrap_or(0) >= 1);
        srv.shutdown();
    }

    #[test]
    fn malformed_frame_gets_bad_request_and_connection_survives() {
        let srv = server();
        let mut end = srv.connect_loopback();
        // A syntactically valid frame whose payload is garbage.
        crate::codec::write_frame(&mut end, &[1, 2, 3]).unwrap();
        let mut client = Client::from_stream(Box::new(end));
        // The error reply for the garbage frame is consumed first; req_id 0
        // matches nothing the client sent, so it is discarded and the ping
        // round-trips on the same connection.
        client.ping().unwrap();
        let snap = srv.service().metrics().snapshot();
        assert_eq!(snap.counter("svc.bad_requests"), Some(1));
        srv.shutdown();
    }

    #[test]
    fn shutdown_request_stops_server_and_tcp_serve_returns() {
        let srv = Arc::new(server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv2 = srv.clone();
        let accept = std::thread::spawn(move || srv2.serve(listener).unwrap());
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let ino = client.create("f").unwrap();
        client.write_at(ino, 0, &[1; 4096]).unwrap();
        client.shutdown_server().unwrap();
        accept.join().unwrap();
        assert!(srv.stopping());
        let fs = Arc::try_unwrap(srv)
            .unwrap_or_else(|_| panic!("server still referenced"))
            .shutdown();
        assert_eq!(fs.file_size(ino).unwrap(), 4096);
    }

    #[test]
    fn threaded_serve_shutdown_wakes_without_polling() {
        let srv = Arc::new(server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv2 = srv.clone();
        let accept = std::thread::spawn(move || srv2.serve_threaded(listener).unwrap());
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        client.ping().unwrap();
        // request_shutdown from outside any connection must ring the accept
        // loop's doorbell even though the port is quiet.
        srv.request_shutdown();
        accept.join().unwrap();
        drop(client);
        Arc::try_unwrap(srv)
            .unwrap_or_else(|_| panic!("server still referenced"))
            .shutdown();
    }

    #[test]
    fn reactor_serve_zero_copy_writes_and_idle_conns() {
        let srv = Arc::new(server());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv2 = srv.clone();
        let accept = std::thread::spawn(move || srv2.serve(listener).unwrap());
        // Idle connections cost no threads: park a handful while working.
        let idle: Vec<Client> = (0..8)
            .map(|_| {
                let mut c = Client::connect_tcp(&addr.to_string()).unwrap();
                c.ping().unwrap();
                c
            })
            .collect();
        let mut client = Client::connect_tcp(&addr.to_string()).unwrap();
        let ino = client.create("zc").unwrap();
        // Block-aligned whole-block write: the zero-copy path.
        let block = vec![0xA5u8; 4096];
        assert_eq!(client.write_at(ino, 0, &block).unwrap(), 4096);
        // Unaligned write: staged through Request::decode.
        assert_eq!(client.write_at(ino, 4096, b"tail").unwrap(), 4);
        assert_eq!(client.read_at(ino, 0, 4096).unwrap(), block);
        assert_eq!(client.read_at(ino, 4096, 4).unwrap(), b"tail");
        let snap = srv.service().metrics().snapshot();
        assert!(snap.counter("svc.zero_copy_writes").unwrap_or(0) >= 1);
        assert!(snap.counter("svc.staged_writes").unwrap_or(0) >= 1);
        assert!(snap.counter("svc.conns.opened").unwrap_or(0) >= 9);
        client.shutdown_server().unwrap();
        accept.join().unwrap();
        drop(idle);
        drop(client);
        let fs = Arc::try_unwrap(srv)
            .unwrap_or_else(|_| panic!("server still referenced"))
            .shutdown();
        assert_eq!(fs.file_size(ino).unwrap(), 4100);
    }

    #[test]
    fn reactor_backpressures_pipelined_writes() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
            DedupMode::Baseline,
        )
        .unwrap();
        let srv = Arc::new(Server::new(
            Arc::new(fs),
            SvcConfig {
                shards: 1,
                max_inflight_per_conn: 2,
                event_loops: 1,
                ..Default::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let srv2 = srv.clone();
        let accept = std::thread::spawn(move || srv2.serve(listener).unwrap());
        let mut end = TcpStream::connect(addr).unwrap();
        let ino = {
            let mut c = Client::connect_tcp(&addr.to_string()).unwrap();
            c.create("f").unwrap()
        };
        // Fire 64 pipelined writes without reading replies: far beyond the
        // inflight cap, so the loop must pause reads rather than queue all.
        for i in 0..64u64 {
            let req = Request::Write {
                ino,
                offset: i * 512,
                data: vec![i as u8; 512],
            };
            crate::codec::write_frame(&mut end, &req.encode(i)).unwrap();
        }
        // Every reply still arrives, in submission order (single shard).
        end.set_stream_timeouts(Some(Duration::from_millis(100)), None)
            .unwrap();
        let mut got = 0u64;
        while got < 64 {
            match read_frame(&mut end).unwrap() {
                FrameRead::Frame(f) => {
                    let (id, reply) = crate::proto::decode_reply(&f).unwrap();
                    assert_eq!(id, got);
                    assert_eq!(reply.unwrap(), Body::Written(512));
                    got += 1;
                }
                FrameRead::Idle => {}
                FrameRead::Eof => panic!("server closed early"),
            }
        }
        let snap = srv.service().metrics().snapshot();
        assert!(snap.counter("svc.backpressure_waits").unwrap_or(0) > 0);
        drop(end);
        srv.request_shutdown();
        accept.join().unwrap();
        let fs = Arc::try_unwrap(srv)
            .unwrap_or_else(|_| panic!("server still referenced"))
            .shutdown();
        assert_eq!(fs.file_size(ino).unwrap(), 64 * 512);
    }

    #[test]
    fn inflight_cap_backpressures_rather_than_drops() {
        let dev = Arc::new(PmemDevice::new(32 * 1024 * 1024));
        let fs = Denova::mkfs(
            dev,
            NovaOptions {
                num_inodes: 128,
                ..Default::default()
            },
            DedupMode::Baseline,
        )
        .unwrap();
        let srv = Server::new(
            Arc::new(fs),
            SvcConfig {
                shards: 1,
                max_inflight_per_conn: 2,
                ..Default::default()
            },
        );
        let mut end = srv.connect_loopback();
        let ino = {
            let mut c = Client::from_stream(Box::new(srv.connect_loopback()));
            c.create("f").unwrap()
        };
        // Fire 64 pipelined writes without reading replies: far beyond the
        // inflight cap, so the reader must stall rather than queue them all.
        for i in 0..64u64 {
            let req = Request::Write {
                ino,
                offset: i * 512,
                data: vec![i as u8; 512],
            };
            crate::codec::write_frame(&mut end, &req.encode(i)).unwrap();
        }
        // Every reply still arrives, in submission order (single shard).
        let mut got = 0u64;
        while got < 64 {
            match read_frame(&mut end).unwrap() {
                FrameRead::Frame(f) => {
                    let (id, reply) = crate::proto::decode_reply(&f).unwrap();
                    assert_eq!(id, got);
                    assert_eq!(reply.unwrap(), Body::Written(512));
                    got += 1;
                }
                FrameRead::Idle => {}
                FrameRead::Eof => panic!("server closed early"),
            }
        }
        let snap = srv.service().metrics().snapshot();
        assert!(snap.counter("svc.backpressure_waits").unwrap_or(0) > 0);
        drop(end);
        let fs = srv.shutdown();
        assert_eq!(fs.file_size(ino).unwrap(), 64 * 512);
    }
}
