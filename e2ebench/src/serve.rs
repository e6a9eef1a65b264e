//! `serve-fresh` and `serve-keepalive`: an in-process `hm serve`
//! (2 workers, an engine cache smaller than the spec set) driven by 2
//! closed-loop client threads over loopback TCP.
//!
//! The mix, per request: 90% warm asks on four small netsim-built frames
//! that stay cached; 6% asks on specs outside the cache capacity, taken
//! round robin so each is a miss, an eviction and a build; 4% malformed
//! requests (broken JSON or an unparseable formula) whose right answer
//! is `400`. Formulas come from a seeded per-spec pool.
//!
//! `serve-fresh` opens a new connection per request (`Connection:
//! close`): accept, JSON parse, engine cache and write dominate, and
//! evaluation takes microseconds. `serve-keepalive` sends 16 requests on
//! each connection, the only shape that exercises the write path a
//! persistent client sees: the server writes the response head and body
//! as two writes with Nagle on, so every request after the first on a
//! connection waits for the client's delayed ACK (~40 ms).

use crate::formulas::{FormulaGen, Vocab};
use crate::stats;
use crate::trace::Trace;
use crate::{Config, Outcome};
use hm_engine::Engine;
use hm_kripke::SplitMix64;
use hm_logic::evaluate_tree;
use hm_serve::json::{esc, Value};
use hm_serve::{ServeConfig, Server, ServerHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Fresh,
    KeepAlive,
}

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// Requests per keep-alive connection.
const PER_CONN: usize = 16;
/// Formulas per spec.
const POOL: usize = 32;
/// Set-ups per run; `setup_s` is their median. A serve set-up takes only
/// ~25 ms, so more of them steady the median.
const SETUPS: usize = 9;

const GENERALS: Vocab = Vocab {
    atoms: &["dispatched", "attacking"],
    agents: 2,
    temporal: true,
};
const R2D2: Vocab = Vocab {
    atoms: &["sent", "sent_focus"],
    agents: 2,
    temporal: true,
};
const OK: Vocab = Vocab {
    atoms: &["psi", "ok_sent"],
    agents: 2,
    temporal: true,
};
const UNCERTAIN: Vocab = Vocab {
    atoms: &["sent", "five_oclock"],
    agents: 2,
    temporal: true,
};

/// Specs kept warm: the cache holds all of them.
const WARM: [(&str, Vocab); 4] = [
    ("generals", GENERALS),
    ("r2d2", R2D2),
    ("ok", OK),
    ("uncertain-start", UNCERTAIN),
];

/// Specs outside the capacity. Asked round robin, each has been evicted
/// by the time it comes round again (two cold slots, six cold specs).
const COLD: [(&str, Vocab); 6] = [
    ("generals:horizon=6", GENERALS),
    ("generals:horizon=10", GENERALS),
    ("r2d2:eps=3", R2D2),
    ("r2d2:pre=2,post=2", R2D2),
    ("ok:horizon=8", OK),
    ("uncertain-start:horizon=8", UNCERTAIN),
];

/// Warm specs plus two cold slots: below the number of specs.
const CAPACITY: usize = WARM.len() + 2;

/// What a request should get back.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Expect {
    /// `200` with the verdict of pool formula `formula` on spec `spec`
    /// (an index into `WARM` then `COLD`).
    Verdict {
        spec: usize,
        formula: usize,
    },
    BadRequest,
}

/// A distinct outcome — what was expected, the status, and the
/// verdict's `(count, worlds)` — kept with its number of requests for
/// the check after the window. Tallies stay bounded however many
/// requests a run makes, so they do not grow the peak RSS.
type OutcomeKey = (Expect, u16, Option<(u64, u64)>);

/// Per-client measurements.
#[derive(Default)]
struct ClientOut {
    outcomes: HashMap<OutcomeKey, u64>,
    latencies_ms: Vec<f32>,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    session_us: Vec<f64>,
    ask_us: Vec<f64>,
    parse_us: Vec<f64>,
    times: HashMap<&'static str, Vec<f64>>,
    errors: Vec<String>,
}

fn body(spec: &str, formula: &str) -> String {
    let mut out = String::from("{\"spec\":");
    esc(&mut out, spec);
    out.push_str(",\"formula\":");
    esc(&mut out, formula);
    out.push('}');
    out
}

fn request(body: &str, keep_alive: bool) -> Vec<u8> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "POST /query HTTP/1.1\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A parsed response: status and body.
struct Response {
    status: u16,
    body: String,
}

/// Reads one `Content-Length`-delimited response. `first_byte` is
/// called when the first bytes arrive, so the trace can split the wait
/// for the status line from the body transfer.
fn read_response(stream: &mut TcpStream, mut first_byte: impl FnMut()) -> Result<Response, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 8192];
    let mut head_len = None;
    let mut need = usize::MAX;
    while buf.len() < need {
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        if buf.is_empty() {
            first_byte();
        }
        buf.extend_from_slice(&chunk[..n]);
        if head_len.is_none() {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..p]).map_err(|_| "non-utf-8 head")?;
                let len = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                    .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                    .ok_or("missing content-length")?;
                head_len = Some(p + 4);
                need = p + 4 + len;
            }
        }
    }
    let head_len = head_len.expect("loop exits only once the head is parsed");
    let status = std::str::from_utf8(&buf[..head_len])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or("bad status line")?;
    let body = String::from_utf8(buf[head_len..need].to_vec()).map_err(|_| "non-utf-8 body")?;
    Ok(Response { status, body })
}

/// Connects with an abortive close (`SO_LINGER` 0): dropping the stream
/// resets the connection instead of the FIN handshake, so neither end
/// keeps a TIME_WAIT entry. A `serve-fresh` run opens ~300k
/// connections; left to linger, their entries fill the kernel's table
/// for a minute and disturb whatever uses loopback TCP next (the serve
/// crate's own tests among them). Every response is read in full
/// before the drop, so no answer is cut short.
fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    #[cfg(target_os = "linux")]
    {
        use std::os::fd::AsRawFd;
        use std::os::raw::{c_int, c_void};
        #[repr(C)]
        struct Linger {
            l_onoff: c_int,
            l_linger: c_int,
        }
        extern "C" {
            fn setsockopt(
                fd: c_int,
                level: c_int,
                name: c_int,
                value: *const c_void,
                len: u32,
            ) -> c_int;
        }
        const SOL_SOCKET: c_int = 1;
        const SO_LINGER: c_int = 13;
        let linger = Linger {
            l_onoff: 1,
            l_linger: 0,
        };
        // SAFETY: the descriptor is an open socket owned by `stream`,
        // which outlives the call; `value` points to a live `Linger`
        // whose size is the `len` passed, the layout `struct linger`
        // has on Linux.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                SO_LINGER,
                std::ptr::from_ref(&linger).cast(),
                std::mem::size_of::<Linger>() as u32,
            )
        };
        if rc != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(stream)
}

fn field_u64(v: &Value, path: &[&str]) -> Option<u64> {
    let mut cur = v;
    for name in path {
        cur = cur.opt_field(name)?;
    }
    cur.u64().ok()
}

/// Every spec with its pool of formula texts, `WARM` then `COLD`; the
/// index into this list is the spec's id in [`Expect`].
type Specs = Vec<(&'static str, Vec<String>)>;

fn specs(seed: u64) -> Specs {
    WARM.iter()
        .chain(COLD.iter())
        .enumerate()
        .map(|(i, &(spec, vocab))| {
            let mut gen = FormulaGen::new(
                0x5E4_0000 + i as u64,
                seed.wrapping_mul(0x2545_F491) ^ i as u64,
                vocab,
            );
            (spec, (0..POOL).map(|_| gen.fresh().0).collect())
        })
        .collect()
}

/// Draws the next request of the mix.
fn next_request(rng: &mut SplitMix64, specs: &Specs, cold_turn: &AtomicUsize) -> (String, Expect) {
    let r = rng.next_below(100);
    let formula = rng.next_below(POOL as u64) as usize;
    if r < 4 {
        let (spec, pool) = &specs[rng.next_below(WARM.len() as u64) as usize];
        let b = if r.is_multiple_of(2) {
            // Truncated JSON.
            let full = body(spec, &pool[formula]);
            full[..full.len() - 1].to_string()
        } else {
            body(spec, "K0 & & (")
        };
        return (b, Expect::BadRequest);
    }
    let spec = if r < 10 {
        WARM.len() + cold_turn.fetch_add(1, Ordering::Relaxed) % COLD.len()
    } else {
        rng.next_below(WARM.len() as u64) as usize
    };
    let (name, pool) = &specs[spec];
    (
        body(name, &pool[formula]),
        Expect::Verdict { spec, formula },
    )
}

/// One client: closed loop until the deadline.
fn client(
    id: usize,
    cfg: Config,
    mode: Mode,
    addr: SocketAddr,
    specs: &Specs,
    cold_turn: &AtomicUsize,
    deadline: Instant,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut tr = Trace::new();
    let mut rng = SplitMix64::new(cfg.seed ^ ((id as u64 + 1) * 0xC0FF_EE11));
    let mut conn: Option<(TcpStream, usize)> = None;
    let mut k = 0u64;
    while Instant::now() < deadline {
        let (req_body, expect) = next_request(&mut rng, specs, cold_turn);
        let keep_alive = mode == Mode::KeepAlive;
        let bytes = request(&req_body, keep_alive);
        // Traced runs alternate whole blocks of PER_CONN requests, so on
        // keep-alive the traced and untraced halves hold the same share
        // of first-on-connection requests.
        let traced = cfg.trace && (k / PER_CONN as u64).is_multiple_of(2);
        let op_id = (id as u64) << 48 | k;
        let t0 = Instant::now();
        let op = traced.then(|| tr.open("op", None, op_id));
        let result = (|| -> Result<Response, String> {
            if conn.as_ref().is_none_or(|(_, used)| *used == PER_CONN) {
                conn = None;
                let s = match op {
                    Some(p) => tr.span("serve.connect", Some(p), op_id, || connect(addr)),
                    None => connect(addr),
                };
                conn = Some((s.map_err(|e| format!("connect: {e}"))?, 0));
            }
            let (stream, used) = conn.as_mut().expect("connected above");
            *used += 1;
            match op {
                Some(p) => {
                    tr.span("serve.write", Some(p), op_id, || stream.write_all(&bytes))
                        .map_err(|e| format!("write: {e}"))?;
                    let wait = tr.open("serve.first_byte", Some(p), op_id);
                    let mut body_span = None;
                    let resp = read_response(stream, || {
                        tr.close(wait);
                        body_span = Some(tr.open("serve.body", Some(p), op_id));
                    });
                    if let Some(b) = body_span {
                        tr.close(b);
                    }
                    resp
                }
                None => {
                    stream
                        .write_all(&bytes)
                        .map_err(|e| format!("write: {e}"))?;
                    read_response(stream, || {})
                }
            }
        })();
        if mode == Mode::Fresh || result.is_err() {
            match op {
                Some(p) => tr.span("serve.close", Some(p), op_id, || conn = None),
                None => conn = None,
            }
        }
        let parsed = result.map(|r| {
            let v = match op {
                Some(p) => tr.span("serve.decode", Some(p), op_id, || Value::parse(&r.body)),
                None => Value::parse(&r.body),
            };
            (r.status, v.ok())
        });
        if let Some(p) = op {
            tr.close(p);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        out.latencies_ms.push(ms as f32);
        if traced {
            out.traced_ms.push(ms);
            let p0 = Instant::now();
            std::hint::black_box(Value::parse(&req_body).ok());
            out.parse_us.push(p0.elapsed().as_secs_f64() * 1e6);
        } else if cfg.trace {
            out.untraced_ms.push(ms);
        }
        let key = match parsed {
            Ok((status, v)) => {
                let count = v.as_ref().and_then(|v| {
                    Some((
                        field_u64(v, &["verdict", "count"])?,
                        field_u64(v, &["verdict", "worlds"])?,
                    ))
                });
                if traced {
                    if let Some(v) = &v {
                        if let Some(s) = field_u64(v, &["timing_us", "session"]) {
                            out.session_us.push(s as f64);
                        }
                        if let Some(a) = field_u64(v, &["timing_us", "ask"]) {
                            out.ask_us.push(a as f64);
                        }
                    }
                }
                (expect, status, count)
            }
            Err(e) => {
                if out.errors.len() < 5 {
                    out.errors.push(e);
                }
                (expect, 0, None)
            }
        };
        *out.outcomes.entry(key).or_default() += 1;
        k += 1;
    }
    out.times = tr.self_times();
    if id == 0 && cfg.trace {
        tr.write(match mode {
            Mode::Fresh => "serve-fresh",
            Mode::KeepAlive => "serve-keepalive",
        });
    }
    out
}

/// Binds and starts a server and asks every pool formula once — cold
/// specs first, then warm ones — so every program is compiled, the warm
/// sessions are cached, and the cold specs the timed window starts with
/// have already been evicted. Returns the handle and the number of
/// well-formed queries sent.
fn start_and_warm(specs: &Specs) -> Result<(ServerHandle, u64), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        engine_capacity: CAPACITY,
        ..ServeConfig::default()
    };
    let handle = Server::bind(&config)
        .and_then(Server::start)
        .map_err(|e| format!("server start: {e}"))?;
    let mut sent = 0;
    let cold_first = specs[WARM.len()..].iter().chain(&specs[..WARM.len()]);
    for (spec, pool) in cold_first {
        for f in pool {
            let mut s = connect(handle.addr()).map_err(|e| format!("warm: {e}"))?;
            s.write_all(&request(&body(spec, f), false))
                .map_err(|e| format!("warm: {e}"))?;
            let r = read_response(&mut s, || {})?;
            sent += 1;
            if r.status != 200 {
                return Err(format!("warm `{spec}` `{f}`: status {}", r.status));
            }
        }
    }
    Ok((handle, sent))
}

pub fn run(cfg: Config, mode: Mode) -> Outcome {
    let mut out = Outcome::default();
    let specs = specs(cfg.seed);

    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        if let Some((h, _)) = server.take() {
            ServerHandle::shutdown(h);
        }
        let t = Instant::now();
        match start_and_warm(&specs) {
            Ok(s) => server = Some(s),
            Err(e) => {
                out.problems.push(format!("set-up failed: {e}"));
                out.attempted = 1;
                out.failed = 1;
                return out;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = stats::median(&mut setups);
    let (handle, warm_sent) = server.expect("set-up ran");

    let cold_turn = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let clients: Vec<ClientOut> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (specs, cold_turn) = (&specs, &cold_turn);
                let addr = handle.addr();
                s.spawn(move || client(id, cfg, mode, addr, specs, cold_turn, deadline))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    out.timed_s = start.elapsed().as_secs_f64();
    out.peak_rss_mb = stats::peak_rss_mb();
    let server_stats = handle.stats_json();
    let drain = handle.shutdown();
    if !drain.drained {
        out.problems.push(format!(
            "server drain forced {} workers",
            drain.forced_workers
        ));
    }

    // Oracle: the reference tree-walk on a local build of each frame.
    let mut expected: HashMap<(usize, usize), Option<(u64, u64)>> = HashMap::new();
    let mut sessions = HashMap::new();
    let mut outcomes: HashMap<OutcomeKey, u64> = HashMap::new();
    for c in &clients {
        for (key, n) in &c.outcomes {
            *outcomes.entry(*key).or_default() += n;
        }
    }
    for (expect, _, _) in outcomes.keys() {
        if let Expect::Verdict { spec, formula } = *expect {
            expected.entry((spec, formula)).or_insert_with(|| {
                let (name, pool) = &specs[spec];
                let session = sessions
                    .entry(spec)
                    .or_insert_with(|| Engine::for_scenario(*name).build().ok());
                let session = session.as_ref()?;
                let f = hm_logic::parse(&pool[formula]).ok()?;
                let set = evaluate_tree(session.frame(), &f).ok()?;
                Some((set.count() as u64, session.num_worlds() as u64))
            });
        }
    }
    let mut well_formed = warm_sent;
    let mut server_errors = 0;
    for (&(expect, status, count), &n) in &outcomes {
        out.attempted += n;
        if status >= 500 {
            server_errors += n;
        }
        let good = match expect {
            Expect::BadRequest => status == 400,
            Expect::Verdict { spec, formula } => {
                well_formed += n;
                status == 200
                    && count.is_some()
                    && count == expected.get(&(spec, formula)).copied().flatten()
            }
        };
        if !good {
            out.failed += n;
        }
    }
    for c in &clients {
        for e in &c.errors {
            out.problems.push(format!("request failed: {e}"));
        }
        out.latencies_ms.extend_from_slice(&c.latencies_ms);
    }
    if server_errors > 0 {
        out.problems
            .push(format!("{server_errors} responses were 5xx"));
    }

    // Server accounting after the window.
    let (mut hits, mut misses, mut evictions, mut shed) = (0, 0, 0, 0);
    match Value::parse(&server_stats) {
        Ok(v) => {
            hits = field_u64(&v, &["engines", "hits"]).unwrap_or(0);
            misses = field_u64(&v, &["engines", "misses"]).unwrap_or(0);
            evictions = field_u64(&v, &["engines", "evictions"]).unwrap_or(0);
            shed = field_u64(&v, &["requests", "shed"]).unwrap_or(u64::MAX);
        }
        Err(e) => out.problems.push(format!("unreadable /stats: {e}")),
    }
    if shed != 0 {
        out.problems.push(format!("server shed {shed} requests"));
    }
    if hits + misses != well_formed {
        out.problems.push(format!(
            "engine cache saw {hits} hits + {misses} misses for {well_formed} well-formed queries"
        ));
    }

    if cfg.trace {
        let mut times: HashMap<&'static str, Vec<f64>> = HashMap::new();
        let (mut traced, mut untraced) = (Vec::new(), Vec::new());
        let (mut session_us, mut ask_us, mut parse_us) = (Vec::new(), Vec::new(), Vec::new());
        for c in clients {
            for (name, v) in c.times {
                times.entry(name).or_default().extend(v);
            }
            traced.extend(c.traced_ms);
            untraced.extend(c.untraced_ms);
            session_us.extend(c.session_us);
            ask_us.extend(c.ask_us);
            parse_us.extend(c.parse_us);
        }
        let untraced_mean_ms = stats::mean(&untraced);
        let us = |times: &mut _, name| Trace::median_self(times, name, 1e3);
        out.layers = vec![
            (
                "trace.overhead_pct",
                100.0 * (stats::median(&mut traced) / stats::median(&mut untraced) - 1.0),
            ),
            (
                "trace.coverage_pct",
                100.0 * Trace::layer_sum_ns(&times) / 1e6 / untraced_mean_ms,
            ),
            ("serve.connect_us", us(&mut times, "serve.connect")),
            ("serve.parse_us", stats::median(&mut parse_us)),
            ("serve.first_byte_us", us(&mut times, "serve.first_byte")),
            ("serve.body_us", us(&mut times, "serve.body")),
            ("serve.session_us", stats::median(&mut session_us)),
            ("serve.ask_us", stats::median(&mut ask_us)),
            (
                "serve.cache_hit_frac",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            ("serve.evictions", evictions as f64),
            ("serve.shed", shed as f64),
        ];
    }
    out
}
