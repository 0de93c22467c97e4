//! `oij` — command-line driver for the online interval join engines.
//!
//! ```text
//! oij workloads                         # show the paper's workload proxies
//! oij gen --tuples 200000 --keys 50 --disorder 2ms --out feed.oij
//! oij run --sql "SELECT sum(v) OVER w FROM s WINDOW w AS (UNION r \
//!          PARTITION BY k ORDER BY t ROWS_RANGE BETWEEN 1s PRECEDING \
//!          AND CURRENT ROW LATENESS 100ms)" --engine scale --joiners 4
//! oij run --preceding 500us --lateness 100us --agg count --input feed.oij
//! ```
//!
//! `run` prints throughput, latency percentiles and balance statistics for
//! the chosen engine over a generated or replayed feed.

use std::process::ExitCode;

use oij::prelude::*;
use oij::workload::{read_csv, read_events, write_csv, write_events};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("workloads") => cmd_workloads(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", HELP);
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}' (see `oij help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const HELP: &str = "\
oij — scalable online interval join

USAGE:
  oij workloads                     print the paper's workload proxies
  oij gen  [feed options] --out F   generate a replayable event feed
  oij run  [query] [feed] [engine]  execute one join and report statistics
  oij serve [budgets]               multi-query serving runtime on stdin

QUERY (either):
  --sql <text>                      OpenMLDB WINDOW ... UNION ... ROWS_RANGE
  --preceding <dur> [--following <dur>] [--lateness <dur>] [--agg sum|count|avg|min|max]
  --emit eager|watermark            emission semantics (default eager)

FEED (generated unless --input):
  --input <file>                    replay a feed (.csv or binary `oij gen` output)
  --tuples <n>      (default 200000)
  --keys <n>        (default 100)
  --disorder <dur>  (default = lateness)
  --probe <0..1>    (default 0.5)
  --zipf <exp>      Zipf-skewed keys (default uniform)
  --seed <n>

ENGINE:
  --engine scale|scale-noinc|key|splitjoin|openmldb   (default scale)
  --index skiplist|jiffy-lite|hint-lite   window-index backend (default skiplist)
  --joiners <n>     (default 4)
  --batch <n>       coalesce up to n tuples per routed message (default 1 = off)
  --rate <tuples/s> pace arrivals (default: full speed)
  --latency         record latency percentiles

SERVE (line protocol on stdin; budgets reject with a reason):
  --max-queries <n>   admission: concurrent query limit (default 64)
  --max-joiners <n>   admission: total joiner-thread budget (default 256)
  --capacity <n>      admission: per-query channel-capacity cap (default 65536)
  --joiners <n>       joiner threads per SQL-registered query (default 1)
  --index <backend>   shared-store backend (default skiplist)
  --keys <n>          key space of the FEED pump (default 16)
  --shed              drop base messages instead of blocking when a
                      query's channel is full (counts shed events)
  commands:  REGISTER <sql>   CANCEL <id|name>   STATS   FEED <n>   QUIT
  (`\\n` in REGISTER splits lines, so `-- name: x` labels fit one line)

DURATIONS: 500us, 20ms, 1s, 10m, 2h (bare numbers are milliseconds).
";

fn cmd_workloads() -> Result<(), String> {
    println!("paper Table II workload proxies (see DESIGN.md §5):\n");
    for w in NamedWorkload::all_real() {
        let rate = w
            .paper
            .arrival_rate
            .map(|r| format!("{:.0}K/s", r / 1e3))
            .unwrap_or_else(|| "∞".into());
        println!(
            "  {}  [{}]  v={rate:<8} u={:<4} |w|={}s l={}s  → proxy w={}µs l={}µs (~{:.0} matches/window)",
            w.name,
            w.sector,
            w.paper.unique_keys,
            w.paper.window_secs,
            w.paper.lateness_secs,
            w.window_us,
            w.lateness_us,
            w.paper.matches_per_window
        );
    }
    for w in [NamedWorkload::table_iv(), NamedWorkload::table_v()] {
        println!(
            "  {:<8} [synthetic]  u={:<5} |w|={}µs l={}µs",
            w.name, w.paper.unique_keys, w.window_us, w.lateness_us
        );
    }
    Ok(())
}

/// Flags that take a value, by `HELP` section.
const QUERY: &str = "sql preceding following lateness agg emit";
const FEED: &str = "input tuples keys disorder probe zipf seed";
const ENGINE: &str = "engine index joiners batch rate";
const SERVE: &str = "max-queries max-joiners capacity joiners index keys";

struct Flags {
    map: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Flags {
    /// Parses `args` against the flags one command accepts: `values` take
    /// a value, `switches` do not (each a space-separated list). Any other
    /// flag is an error, and so is a value flag given without its value.
    fn parse(args: &[String], values: &[&str], switches: &str) -> Result<Flags, String> {
        let named = |list: &str, name: &str| list.split_whitespace().any(|f| f == name);
        let mut map = Vec::new();
        let mut bools = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if named(switches, name) {
                bools.push(name.to_string());
            } else if !values.iter().any(|list| named(list, name)) {
                return Err(format!("unknown flag '--{name}' (see `oij help`)"));
            } else if let Some(v) = it.next_if(|v| !v.starts_with("--")) {
                map.push((name.to_string(), v.clone()));
            } else {
                return Err(format!("--{name} needs a value"));
            }
        }
        Ok(Flags { map, bools })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|b| b == name)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value '{v}'")),
        }
    }

    fn parse_dur(&self, name: &str) -> Result<Option<Duration>, String> {
        self.get(name).map(parse_duration).transpose()
    }
}

/// Parses a duration literal via the SQL lexer (`1s`, `20ms`, bare = ms).
fn parse_duration(text: &str) -> Result<Duration, String> {
    match oij_sql::lexer::tokenize(text) {
        Ok(tokens) => match tokens.as_slice() {
            [t] => match &t.kind {
                oij_sql::lexer::TokenKind::Duration(d) => Ok(*d),
                oij_sql::lexer::TokenKind::Number(ms) => Ok(Duration::from_millis(*ms)),
                _ => Err(format!("'{text}' is not a duration")),
            },
            _ => Err(format!("'{text}' is not a duration")),
        },
        Err(e) => Err(e.to_string()),
    }
}

fn build_query(flags: &Flags) -> Result<OijQuery, String> {
    let mut query = if let Some(sql) = flags.get("sql") {
        oij::sql::parse(sql)
            .and_then(|plan| plan.to_oij_query())
            .map_err(|e| e.to_string())?
    } else {
        let preceding = flags
            .parse_dur("preceding")?
            .ok_or("either --sql or --preceding is required")?;
        let agg =
            AggSpec::from_sql_name(flags.get("agg").unwrap_or("sum")).map_err(|e| e.to_string())?;
        OijQuery::builder()
            .preceding(preceding)
            .following(flags.parse_dur("following")?.unwrap_or(Duration::ZERO))
            .lateness(flags.parse_dur("lateness")?.unwrap_or(Duration::ZERO))
            .agg(agg)
            .build()
            .map_err(|e| e.to_string())?
    };
    match flags.get("emit") {
        None | Some("eager") => query.emit = EmitMode::Eager,
        Some("watermark") => query.emit = EmitMode::Watermark,
        Some(other) => return Err(format!("--emit: unknown mode '{other}'")),
    }
    Ok(query)
}

fn build_feed(flags: &Flags, default_disorder: Duration) -> Result<Vec<Event>, String> {
    if let Some(path) = flags.get("input") {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let reader = std::io::BufReader::new(file);
        // CSV traces by extension; the compact binary format otherwise.
        return if path.ends_with(".csv") {
            read_csv(reader).map_err(|e| e.to_string())
        } else {
            read_events(reader).map_err(|e| e.to_string())
        };
    }
    let key_dist = match flags.get("zipf") {
        None => KeyDist::Uniform,
        Some(v) => KeyDist::Zipf {
            exponent: v.parse().map_err(|_| format!("--zipf: bad value '{v}'"))?,
        },
    };
    Ok(SyntheticConfig {
        tuples: flags.parse_num("tuples", 200_000usize)?,
        unique_keys: flags.parse_num("keys", 100u64)?,
        key_dist,
        probe_fraction: flags.parse_num("probe", 0.5f64)?,
        spacing: Duration::from_micros(1),
        disorder: flags.parse_dur("disorder")?.unwrap_or(default_disorder),
        seed: flags.parse_num("seed", 0xC11u64)?,
        ..Default::default()
    }
    .generate())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[FEED, "out"], "")?;
    let out = flags.get("out").ok_or("--out <file> is required")?;
    let events = build_feed(&flags, Duration::ZERO)?;
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let writer = std::io::BufWriter::new(file);
    if out.ends_with(".csv") {
        write_csv(writer, &events).map_err(|e| e.to_string())?;
    } else {
        write_events(writer, &events).map_err(|e| e.to_string())?;
    }
    println!("wrote {} events to {out}", events.len());
    Ok(())
}

/// The `oij serve` command: a long-running multi-query serving runtime
/// driven by a line protocol on stdin (see `HELP`). `FEED n` pumps `n`
/// deterministic synthetic events through the shared ingest so smoke
/// tests and demos need no external event source: event `i` has
/// `ts = i µs` (monotone), alternates probe/base, and cycles keys.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use std::io::BufRead;

    let flags = Flags::parse(args, &[SERVE], "shed")?;
    let mut cfg = ServeConfig::new().with_budgets(
        flags.parse_num("max-queries", 64usize)?,
        flags.parse_num("max-joiners", 256usize)?,
        flags.parse_num("capacity", 1usize << 16)?,
    );
    cfg.default_joiners = flags.parse_num("joiners", 1usize)?;
    if let Some(label) = flags.get("index") {
        let backend = IndexBackend::from_label(label)
            .ok_or_else(|| format!("--index: unknown backend '{label}'"))?;
        cfg = cfg.with_index_backend(backend);
    }
    if flags.has("shed") {
        cfg = cfg.with_shedding();
    }
    let keys = flags.parse_num("keys", 16u64)?.max(1);
    let mut runtime = ServeRuntime::new(cfg).map_err(|e| e.to_string())?;
    let mut fed = 0u64;

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let line = line.trim();
        let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        match (verb.to_ascii_uppercase().as_str(), rest.trim()) {
            ("", "") => {}
            ("QUIT", _) => break,
            // A literal `\n` splits lines, so `-- name: x` labels fit
            // the one-line protocol.
            ("REGISTER", sql) => {
                match runtime.register_sql(&sql.replace("\\n", "\n"), Sink::null()) {
                    Ok(id) => {
                        let name = runtime
                            .stats()
                            .into_iter()
                            .find(|q| q.id == id)
                            .and_then(|q| q.name);
                        match name {
                            Some(name) => println!("registered {id} ({name})"),
                            None => println!("registered {id}"),
                        }
                    }
                    Err(e) => println!("rejected: {e}"),
                }
            }
            ("CANCEL", target) => {
                let id = runtime.lookup(target).or_else(|| {
                    runtime
                        .stats()
                        .into_iter()
                        .map(|q| q.id)
                        .find(|id| id.to_string() == target || id.raw().to_string() == target)
                });
                match id {
                    None => println!("no such query '{target}'"),
                    Some(id) => match runtime.cancel(id) {
                        Ok(stats) => println!(
                            "cancelled {id}: results={} shed={}",
                            stats.results, stats.shed_events
                        ),
                        Err(e) => println!("cancelled {id} with failure: {e}"),
                    },
                }
            }
            ("STATS", _) => {
                let snap = runtime.snapshot();
                println!(
                    "active={} groups={} threads={} events={} probes={} retained={} evicted={}",
                    snap.active_queries,
                    snap.groups,
                    snap.worker_threads,
                    snap.events,
                    snap.probe_inserts,
                    snap.retained,
                    snap.evicted
                );
                for q in runtime.stats() {
                    println!(
                        "  {} name={} joiners={} group={} pushed={} shed={} {}",
                        q.id,
                        q.name.as_deref().unwrap_or("-"),
                        q.joiners,
                        q.group,
                        q.pushed,
                        q.shed,
                        if q.failed { "FAILED" } else { "ok" }
                    );
                }
            }
            ("FEED", n) => {
                let n: u64 = n.parse().map_err(|_| format!("FEED: bad count '{n}'"))?;
                for i in fed..fed + n {
                    let side = if i % 2 == 0 { Side::Probe } else { Side::Base };
                    let tuple =
                        Tuple::new(Timestamp::from_micros(i as i64), i % keys, i as f64 * 0.5);
                    runtime
                        .push(Event::data(i, side, tuple))
                        .map_err(|e| e.to_string())?;
                }
                fed += n;
                println!("fed {n} events");
            }
            (other, _) => println!("unknown command '{other}' (REGISTER/CANCEL/STATS/FEED/QUIT)"),
        }
    }

    for (id, result) in runtime.finish() {
        match result {
            Ok(stats) => println!(
                "finished {id}: results={} shed={}",
                stats.results, stats.shed_events
            ),
            Err(e) => println!("finished {id} with failure: {e}"),
        }
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &[QUERY, FEED, ENGINE], "latency")?;
    let query = build_query(&flags)?;
    let events = build_feed(&flags, query.window.lateness)?;
    let joiners = flags.parse_num("joiners", 4usize)?;
    let rate: Option<f64> = flags
        .get("rate")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "--rate: bad value".to_string())?;

    let mut cfg = EngineConfig::new(query, joiners).map_err(|e| e.to_string())?;
    cfg = cfg.with_batch_size(flags.parse_num("batch", 1usize)?);
    if flags.has("latency") {
        cfg = cfg.with_instrument(Instrumentation::latency());
    }
    if let Some(label) = flags.get("index") {
        let backend = IndexBackend::from_label(label)
            .ok_or_else(|| format!("--index: unknown backend '{label}'"))?;
        cfg = cfg.with_index_backend(backend);
    }
    let engine_name = flags.get("engine").unwrap_or("scale");
    let mut engine: Box<dyn OijEngine> = match engine_name {
        "scale" => Box::new(ScaleOij::spawn(cfg, Sink::null()).map_err(|e| e.to_string())?),
        "scale-noinc" => Box::new(
            ScaleOij::spawn(cfg.without_incremental(), Sink::null()).map_err(|e| e.to_string())?,
        ),
        "key" => Box::new(KeyOij::spawn(cfg, Sink::null()).map_err(|e| e.to_string())?),
        "splitjoin" => Box::new(SplitJoin::spawn(cfg, Sink::null()).map_err(|e| e.to_string())?),
        "openmldb" => {
            Box::new(OpenMldbBaseline::spawn(cfg, Sink::null()).map_err(|e| e.to_string())?)
        }
        other => return Err(format!("--engine: unknown engine '{other}'")),
    };

    let start = std::time::Instant::now();
    for (i, e) in events.iter().enumerate() {
        if let Some(rate) = rate {
            if i % 32 == 0 {
                let target = std::time::Duration::from_secs_f64(i as f64 / rate);
                let elapsed = start.elapsed();
                if elapsed < target {
                    std::thread::sleep(target - elapsed);
                }
            }
        }
        engine.push(e.clone()).map_err(|e| e.to_string())?;
    }
    let stats = engine.finish().map_err(|e| e.to_string())?;

    println!("engine          : {engine_name} ({joiners} joiners)");
    println!("input tuples    : {}", stats.input_tuples);
    println!("feature rows    : {}", stats.results);
    println!("throughput      : {:.0} tuples/s", stats.throughput);
    println!("unbalancedness  : {:.4}", stats.unbalancedness);
    println!("evicted tuples  : {}", stats.evicted);
    println!("late violations : {}", stats.late_violations);
    println!("nodes visited   : {}", stats.nodes_visited);
    println!("cells merged    : {}", stats.cells_merged);
    if stats.schedule_changes > 0 {
        println!("schedule changes: {}", stats.schedule_changes);
    }
    if stats.batch_occupancy.max() > 1 {
        println!(
            "batch occupancy : mean {:.1} / max {} over {} batches",
            stats.batch_occupancy.mean(),
            stats.batch_occupancy.max(),
            stats.batch_occupancy.batches()
        );
    }
    if let Some(lat) = &stats.latency {
        println!(
            "latency p50/p95/p99/max: {:.3} / {:.3} / {:.3} / {:.3} ms",
            lat.quantile_ns(0.5) as f64 / 1e6,
            lat.quantile_ns(0.95) as f64 / 1e6,
            lat.quantile_ns(0.99) as f64 / 1e6,
            lat.max_ns() as f64 / 1e6,
        );
    }
    Ok(())
}
