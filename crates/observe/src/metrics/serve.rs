//! The scrape endpoint and the headless periodic dump.
//!
//! Both are std-only (`std::net::TcpListener`, `std::thread`) because
//! the workspace builds `--offline` with no external dependencies. The
//! server speaks just enough HTTP/1.1 for `curl` and a Prometheus
//! scraper: `GET /metrics` (text exposition), `GET /metrics.json`
//! (JSON snapshot), any [`Routes`] the embedder registered, 404 for
//! unknown paths, and 400 for a request line that is not a `GET`.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cso_trace::Registry;

use crate::metrics::prom::{render_json, render_prometheus};

/// A pluggable route: returns `(content type, body)`; the server adds
/// the status line and headers. Handlers run on the serve thread, one
/// request at a time — keep them snapshot-cheap.
pub type RouteHandler = Arc<dyn Fn() -> (String, String) + Send + Sync>;

/// Extra `GET` routes served alongside the built-in `/metrics` and
/// `/metrics.json` (which always win on a path collision). This keeps
/// the server ignorant of what it serves: the profile and watch
/// modules plug their routes in from outside.
#[derive(Clone, Default)]
pub struct Routes {
    routes: Vec<(String, RouteHandler)>,
}

impl Routes {
    /// No extra routes.
    #[must_use]
    pub fn new() -> Routes {
        Routes::default()
    }

    /// Registers `handler` for exact-match `path` (e.g. `/profile`).
    #[must_use]
    pub fn add(
        mut self,
        path: impl Into<String>,
        handler: impl Fn() -> (String, String) + Send + Sync + 'static,
    ) -> Routes {
        self.routes.push((path.into(), Arc::new(handler)));
        self
    }

    /// Appends every route of `other`, preserving registration order
    /// (so `profile_routes(...).merge(watch_routes(...))` serves both
    /// tables on one port). On a path collision the earlier
    /// registration wins, matching lookup order.
    #[must_use]
    pub fn merge(mut self, other: Routes) -> Routes {
        self.routes.extend(other.routes);
        self
    }

    /// The registered paths, in registration order.
    #[must_use]
    pub fn paths(&self) -> Vec<&str> {
        self.routes.iter().map(|(p, _)| p.as_str()).collect()
    }

    /// The handler registered for exact-match `path`, if any. Public
    /// so route tables can be exercised without a live socket.
    #[must_use]
    pub fn lookup(&self, path: &str) -> Option<&RouteHandler> {
        self.routes.iter().find(|(p, _)| p == path).map(|(_, h)| h)
    }
}

impl std::fmt::Debug for Routes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Routes")
            .field("paths", &self.paths())
            .finish()
    }
}

/// A background scrape endpoint serving a [`Registry`].
///
/// ```no_run
/// use cso_observe::metrics::{MetricsServer, Registry};
/// let registry = Registry::new();
/// let server = MetricsServer::bind(registry, "127.0.0.1:9184").unwrap();
/// println!("scrape http://{}/metrics", server.addr());
/// // ... run the workload ...
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves the
    /// registry from a background thread until [`shutdown`].
    ///
    /// [`shutdown`]: MetricsServer::shutdown
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn bind(registry: Registry, addr: impl ToSocketAddrs) -> std::io::Result<MetricsServer> {
        MetricsServer::bind_with_routes(registry, addr, Routes::new())
    }

    /// Like [`MetricsServer::bind`], plus embedder-supplied [`Routes`]
    /// served alongside the built-ins.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn bind_with_routes(
        registry: Registry,
        addr: impl ToSocketAddrs,
        routes: Routes,
    ) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cso-metrics-serve".to_owned())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    if let Ok(stream) = conn {
                        // One request per connection, best-effort: a
                        // slow or broken scraper must not wedge the
                        // serve thread.
                        let _ = serve_one(stream, &registry, &routes);
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serve thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads one request head and writes the matching response.
fn serve_one(mut stream: TcpStream, registry: &Registry, routes: &Routes) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the end of the request head (or the buffer is full —
    // longer requests than that are not scrapes we serve).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n")
                    || buf[..len].windows(2).any(|w| w == b"\n\n")
                {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..len]);
    // A well-formed request line is `GET <path> HTTP/1.x`. Anything
    // else — wrong method, missing path, binary noise — is a 400, not
    // a 404: the request was unintelligible, not a miss.
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let path = match (parts.next(), parts.next()) {
        (Some("GET"), Some(path)) if path.starts_with('/') => Some(path),
        _ => None,
    };
    let (status, content_type, body) = match path {
        None => (
            "400 Bad Request",
            "text/plain".to_owned(),
            "bad request\n".to_owned(),
        ),
        Some("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4".to_owned(),
            render_prometheus(&registry.snapshot()),
        ),
        Some("/metrics.json") => (
            "200 OK",
            "application/json".to_owned(),
            render_json(&registry.snapshot()).render_pretty(),
        ),
        Some(other) => match routes.lookup(other) {
            Some(handler) => {
                let (content_type, body) = handler();
                ("200 OK", content_type, body)
            }
            None => (
                "404 Not Found",
                "text/plain".to_owned(),
                "not found\n".to_owned(),
            ),
        },
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

/// A headless alternative to scraping: a background thread writes the
/// JSON snapshot to a file every `interval`, plus a final write at
/// stop, so batch runs leave a metrics artifact without opening a
/// port. Each write goes to a sibling `<path>.tmp` that is then
/// renamed over `path`, so a reader polling the file always reads a
/// whole document, never a truncated one.
#[derive(Debug)]
pub struct PeriodicDump {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PeriodicDump {
    /// Starts dumping `registry` to `path` every `interval`.
    #[must_use]
    pub fn spawn(registry: Registry, path: std::path::PathBuf, interval: Duration) -> PeriodicDump {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let handle = std::thread::Builder::new()
            .name("cso-metrics-dump".to_owned())
            .spawn(move || loop {
                // Read the flag before the snapshot: a stop that lands
                // while a write is under way gets one more write, of a
                // snapshot taken after it.
                let last = stop_flag.load(Ordering::Acquire);
                let json = render_json(&registry.snapshot()).render_pretty();
                let _ = std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &path));
                if last {
                    break;
                }
                std::thread::park_timeout(interval);
            })
            .expect("spawn metrics dump thread");
        PeriodicDump {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the dump thread after one final write.
    pub fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        handle.thread().unpark();
        let _ = handle.join();
    }
}

impl Drop for PeriodicDump {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::prom::validate_prometheus;
    use crate::metrics::Json;

    /// A minimal HTTP GET against the server under test.
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_prometheus_and_json() {
        let registry = Registry::new();
        registry.counter_fn("smoke_total", || 5);
        registry.gauge_fn("smoke_gauge", || 1.5);
        registry.timer("smoke_ns").record_ns(1000);
        let server = MetricsServer::bind(registry, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("smoke_total 5"));
        validate_prometheus(&body).expect("valid exposition format");

        let (head, body) = http_get(addr, "/metrics.json");
        assert!(head.starts_with("HTTP/1.1 200"));
        let parsed = Json::parse(&body).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("smoke_total"))
                .and_then(Json::as_u64),
            Some(5)
        );

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn custom_routes_serve_alongside_builtins() {
        let registry = Registry::new();
        registry.counter_fn("routed_total", || 1);
        let hits = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let hits_in_route = Arc::clone(&hits);
        let routes = Routes::new()
            .add("/profile", move || {
                hits_in_route.fetch_add(1, Ordering::Relaxed);
                ("text/plain".to_owned(), "live profile\n".to_owned())
            })
            .add("/spans.json", || {
                ("application/json".to_owned(), "{\"spans\":0}".to_owned())
            });
        assert_eq!(routes.paths(), vec!["/profile", "/spans.json"]);
        let server = MetricsServer::bind_with_routes(registry, "127.0.0.1:0", routes).unwrap();
        let addr = server.addr();

        let (head, body) = http_get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain"));
        assert_eq!(body, "live profile\n");
        assert_eq!(hits.load(Ordering::Relaxed), 1);

        let (head, body) = http_get(addr, "/spans.json");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("application/json"));
        assert_eq!(body, "{\"spans\":0}");

        // Built-ins still win, and unknown paths still miss.
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(body.contains("routed_total 1"));
        let (head, _) = http_get(addr, "/not-a-route");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn malformed_request_lines_get_400() {
        let server = MetricsServer::bind(Registry::new(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        for raw in [
            "BLARG\r\n\r\n",                  // no path at all
            "POST /metrics HTTP/1.1\r\n\r\n", // wrong method
            "GET metrics HTTP/1.1\r\n\r\n",   // path without leading /
            "\r\n\r\n",                       // empty request line
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(raw.as_bytes()).unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            assert!(
                response.starts_with("HTTP/1.1 400"),
                "{raw:?} -> {response:?}"
            );
        }
        server.shutdown();
    }

    /// A client that sends half a request head and then stalls must
    /// not wedge the single serve thread: the 500 ms read timeout
    /// fires, the stalled connection gets whatever answer its partial
    /// head earned, and the next well-formed scrape is served.
    #[test]
    fn a_stalled_partial_request_cannot_wedge_the_serve_thread() {
        let registry = Registry::new();
        registry.counter_fn("survived_total", || 1);
        let server = MetricsServer::bind(registry, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled.write_all(b"GET /metr").unwrap(); // no head terminator
        let start = std::time::Instant::now();

        // While the stalled connection sits in its read timeout, a
        // fresh scrape queues behind it and must still complete.
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("survived_total 1"));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "stalled client held the serve thread for {:?}",
            start.elapsed()
        );

        // The stalled connection itself was answered after the read
        // timeout: its truncated head parsed as `GET /metr`, a miss.
        let mut response = String::new();
        stalled.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 404"), "{response:?}");

        server.shutdown();
    }

    /// A client that connects, never writes a byte, and walks away
    /// (plus one that requests but never reads) must leave the server
    /// able to answer the next scraper.
    #[test]
    fn silent_and_never_reading_clients_are_shed() {
        let registry = Registry::new();
        registry.counter_fn("shed_total", || 2);
        let server = MetricsServer::bind(registry, "127.0.0.1:0").unwrap();
        let addr = server.addr();

        // Mute client: opens a connection and sends nothing. Held open
        // across the follow-up scrape so the timeout, not the client,
        // frees the thread.
        let mute = TcpStream::connect(addr).unwrap();

        // Deaf client: sends a valid request, never reads the
        // response, and hangs up. (The response fits the kernel socket
        // buffer, so at worst the write timeout applies.)
        let mut deaf = TcpStream::connect(addr).unwrap();
        deaf.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        drop(deaf);

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("shed_total 2"));

        drop(mute);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_frees_the_port() {
        let server = MetricsServer::bind(Registry::new(), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        server.shutdown();
        // The port is released: a rebind succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after shutdown");
    }

    /// A reader polling the dump file sees a whole document on every
    /// read: the dump replaces the file, it never truncates it.
    #[test]
    fn a_reader_polling_the_dump_never_sees_a_torn_document() {
        let registry = Registry::new();
        for i in 0..200 {
            registry.counter_fn(&format!("torn_{i}_total"), move || i);
        }
        let dir = std::env::temp_dir().join(format!("cso-dump-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let dump = PeriodicDump::spawn(registry, path.clone(), Duration::from_millis(1));
        let deadline = std::time::Instant::now() + Duration::from_millis(300);
        let (mut reads, mut torn) = (0u64, 0u64);
        while std::time::Instant::now() < deadline {
            match std::fs::read_to_string(&path) {
                Ok(text) => {
                    reads += 1;
                    if Json::parse(&text).is_err() {
                        torn += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => panic!("{}: {e}", path.display()),
            }
        }
        dump.stop();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(reads > 0, "the dump never appeared");
        assert_eq!(torn, 0, "{torn} of {reads} reads saw a torn document");
    }

    /// A stop that lands while a write is under way is followed by one
    /// more write, so the file ends on a snapshot taken after the stop.
    #[test]
    fn a_stop_during_a_write_still_ends_on_a_later_snapshot() {
        use std::sync::atomic::{AtomicBool, AtomicU64};
        // Spin, not park: a park would eat the stop's unpark.
        let wait = |flag: &AtomicBool| {
            while !flag.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
        };
        let (entered, released) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        let value = Arc::new(AtomicU64::new(1));
        let registry = Registry::new();
        let (read, inside, go, first) = (
            Arc::clone(&value),
            Arc::clone(&entered),
            Arc::clone(&released),
            AtomicBool::new(true),
        );
        registry.counter_fn("late_total", move || {
            let seen = read.load(Ordering::SeqCst);
            // The first snapshot holds until the stop has landed.
            if first.swap(false, Ordering::SeqCst) {
                inside.store(true, Ordering::SeqCst);
                wait(&go);
            }
            seen
        });
        let dir = std::env::temp_dir().join(format!("cso-metrics-late-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let dump = PeriodicDump::spawn(registry, path.clone(), Duration::from_secs(3600));
        wait(&entered);
        value.store(2, Ordering::SeqCst);
        // The stop lands while the first write is under way.
        dump.stop.store(true, Ordering::Release);
        released.store(true, Ordering::SeqCst);
        dump.stop();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let late = Json::parse(&text).unwrap();
        let late = late.get("counters").and_then(|c| c.get("late_total"));
        assert_eq!(late.and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn periodic_dump_writes_snapshots() {
        let registry = Registry::new();
        registry.counter_fn("dumped_total", || 7);
        let dir = std::env::temp_dir().join(format!("cso-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dump.json");
        let dump = PeriodicDump::spawn(registry, path.clone(), Duration::from_secs(3600));
        dump.stop(); // final write happens on stop even mid-interval
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("dumped_total"))
                .and_then(Json::as_u64),
            Some(7)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
