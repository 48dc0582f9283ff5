//! `cme` — command-line driver for the loop-tiling suite, a thin shell
//! over the `cme-api` request/outcome layer: every search subcommand
//! builds an `OptimizeRequest`, runs it through a `Session`, and renders
//! the unified `Outcome` as text or (with `--json`) as its canonical
//! serialised form.

use cme_suite::api::{
    AnalyzeRequest, ApiError, BaselineKind, CompareRequest, LintRequest, NestSource,
    OptimizeRequest, Outcome, PaddingMode, Session, StrategySpec,
};
use cme_suite::cachesim::{simulate_nest, simulate_nest_hierarchy, CacheGeometry, LevelGeometry};
use cme_suite::cme::{CacheHierarchy, CacheLevel, CacheSpec, MissEstimate, SamplingConfig};
use cme_suite::loopnest::{display, LoopNest, MemoryLayout, TileSizes};
use std::process::exit;

const USAGE: &str = "cme — near-optimal loop tiling via Cache Miss Equations + genetic algorithms

usage:
  cme kernels                              list the Table 1 kernels
  cme show KERNEL [N]                      print a kernel as pseudo-Fortran
  cme analyze KERNEL [N] [opts]            CME miss-ratio analysis
  cme tile KERNEL [N] [opts]               GA tile-size search (§3)
  cme compare KERNEL [N] [opts]            strategy tournament: race several
                                           families over one request, ranked by
                                           the latency-weighted objective
  cme pad KERNEL [N] [opts]                GA padding search (§4.3)
  cme simulate KERNEL [N] [opts]           exact LRU simulation (oracle)
  cme lint KERNEL [N] [opts]               dependence analysis + kernel lints
                                           (legality, dead arrays, reuse,
                                            footprint; --src adds positions)
  cme batch FILE                           run a JSON array of OptimizeRequests
                                           (FILE of `-` reads stdin)
  cme serve                                HTTP/JSON service over the same API
                                           (POST /optimize /analyze /lint /compare
                                            /batch, GET /healthz /metrics,
                                            POST /shutdown)

KERNEL defaults to MM (the paper's headline kernel) when omitted. Every
subcommand taking KERNEL also accepts a bring-your-own nest instead:

  --nest FILE.json                         inline nest as LoopNest JSON
                                           (the wire schema's `{\"Inline\": ...}`
                                           payload; see docs/SCHEMA.md)
  --src FILE.c                             inline nest as C-like kernel source
                                           (see docs/SCHEMA.md for the format;
                                           FILE of `-` reads stdin)

options:
  --cache 8k | 32k | SIZE,LINE[,ASSOC]     cache geometry (default 8k DM/32B)
  --cache l1l2 | SPEC@LAT+SPEC@LAT[+...]   cache *hierarchy*: levels innermost
                                           first, each SIZE,LINE[,ASSOC] with an
                                           optional @MISS_LATENCY (default 1);
                                           `l1l2` is the built-in two-level
                                           preset (8K DM @10 + 64K 4-way @80)
  --tiles T1,T2,...                        analyse/simulate a specific tiling
  --exhaustive                             analyze: classify every point
                                           tile: exhaustive sweep instead of GA
  --max-evals N                            cap for the exhaustive sweep (default 100000)
  --step S                                 stride for the exhaustive sweep (default 1)
  --baseline lrw | tss | fixed[:FRAC]      tile: score a §5 heuristic instead of GA
  --strategies T1,T2,...                   compare: the families to race
                                           (default ga,oblivious,latency,baseline:lrw;
                                           tokens: ga/tiling, oblivious, latency,
                                           interchange, padding, padding:then-tile,
                                           padding:joint, exhaustive, baseline:lrw,
                                           baseline:tss, baseline:fixed-fraction)
  --interchange                            tile: also search loop permutations
  --tile-after                             pad: run tiling on the padded layout
  --joint                                  pad: joint padding+tiling GA
  --seed S                                 GA / sampling seed
  --json                                   emit the serialised request outcome
  --sequential                             batch: disable parallel execution
  --addr HOST:PORT                         serve: bind address (default 127.0.0.1:7878)
  --workers N                              serve: worker threads (default 4)
  --queue N                                serve: waiting-connection cap; beyond it
                                           requests get 503 (default 64)
  --cache-entries N                        serve: outcome-cache entries, 0 disables
                                           (default 1024)
  --displacement-entries N                 serve: process-wide displacement-cache
                                           entries, 0 disables (default 4096)
  --cache-dir DIR                          serve: persist computed outcomes to
                                           DIR/outcomes.jsonl; flushed on shutdown,
                                           reloaded lazily on restart
";

fn usage() -> ! {
    eprint!("{USAGE}");
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

/// Read a whole input: a file path, or stdin when the path is `-`.
fn read_input(path: &str) -> String {
    if path == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf).unwrap_or_else(|e| fail(e));
        buf
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")))
    }
}

struct Args {
    positional: Vec<String>,
    nest_file: Option<String>,
    src_file: Option<String>,
    cache: CacheHierarchy,
    tiles: Option<TileSizes>,
    exhaustive: bool,
    max_evals: u64,
    step: i64,
    baseline: Option<BaselineKind>,
    strategies: Option<String>,
    interchange: bool,
    tile_after: bool,
    joint: bool,
    seed: u64,
    json: bool,
    sequential: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_entries: Option<usize>,
    displacement_entries: Option<usize>,
    cache_dir: Option<String>,
}

/// One `SIZE,LINE[,ASSOC][@MISS_LATENCY]` level.
fn parse_cache_level(s: &str) -> CacheLevel {
    let (spec_str, latency) = match s.split_once('@') {
        None => (s, 1.0),
        Some((spec_str, lat)) => (
            spec_str,
            lat.trim().parse().unwrap_or_else(|_| {
                fail(format!("bad --cache level `{s}`: `{lat}` is not a miss latency"))
            }),
        ),
    };
    let parts: Vec<i64> = spec_str
        .split(',')
        .map(|p| {
            p.trim().parse().unwrap_or_else(|_| {
                fail(format!(
                    "bad --cache level `{s}`: `{p}` is not an integer (each `+`-separated \
                     level is SIZE,LINE[,ASSOC][@LAT]; the 8k/32k/l1l2 presets stand alone)"
                ))
            })
        })
        .collect();
    let spec = match parts.as_slice() {
        [size, line] => CacheSpec::direct_mapped(*size, *line),
        [size, line, assoc] => CacheSpec { size: *size, line: *line, assoc: *assoc },
        _ => fail(format!(
            "bad --cache level `{s}`: want 2 or 3 comma-separated integers, got {}",
            parts.len()
        )),
    };
    CacheLevel::new(spec, latency)
}

fn parse_cache(s: &str) -> CacheHierarchy {
    let hierarchy = match s {
        "8k" | "8K" => CacheSpec::paper_8k().into(),
        "32k" | "32K" => CacheSpec::paper_32k().into(),
        "l1l2" | "L1L2" => CacheHierarchy::l1l2_default(),
        other => {
            let levels: Vec<CacheLevel> = other.split('+').map(parse_cache_level).collect();
            // A single level with no explicit latency is the legacy
            // single cache; anything else is a real hierarchy.
            if levels.len() == 1 && !other.contains('@') {
                levels[0].spec.into()
            } else {
                CacheHierarchy::new(levels).unwrap_or_else(|e| fail(e))
            }
        }
    };
    // Reject bad geometry and NaN/non-positive latencies here, with the
    // CLI's clean error shape, instead of a panic deep in the model or
    // simulator.
    if let Err(e) = hierarchy.validate() {
        fail(format!("bad --cache value `{s}`: {e}"));
    }
    hierarchy
}

fn parse_tiles(s: &str) -> TileSizes {
    let tiles: Vec<i64> = s
        .split(',')
        .map(|p| {
            p.trim().parse().unwrap_or_else(|_| {
                fail(format!("bad --tiles value `{s}`: `{p}` is not an integer"))
            })
        })
        .collect();
    if tiles.is_empty() {
        fail(format!("bad --tiles value `{s}`: no tile sizes"));
    }
    TileSizes(tiles)
}

fn parse_baseline(s: &str) -> BaselineKind {
    match s {
        "lrw" => BaselineKind::LrwSquare,
        "tss" => BaselineKind::Tss,
        "fixed" => BaselineKind::FixedFraction { fraction: 0.5 },
        other => match other.strip_prefix("fixed:").map(str::parse::<f64>) {
            Some(Ok(fraction)) => BaselineKind::FixedFraction { fraction },
            _ => fail(format!("bad --baseline value `{other}` (want lrw, tss or fixed[:FRAC])")),
        },
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        positional: Vec::new(),
        nest_file: None,
        src_file: None,
        cache: CacheSpec::paper_8k().into(),
        tiles: None,
        exhaustive: false,
        max_evals: 100_000,
        step: 1,
        baseline: None,
        strategies: None,
        interchange: false,
        tile_after: false,
        joint: false,
        seed: 0xCE11,
        json: false,
        sequential: false,
        addr: None,
        workers: None,
        queue: None,
        cache_entries: None,
        displacement_entries: None,
        cache_dir: None,
    };
    let mut it = std::env::args().skip(1);
    let value_of = |flag: &str, it: &mut dyn Iterator<Item = String>| -> String {
        it.next().unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nest" => args.nest_file = Some(value_of("--nest", &mut it)),
            "--src" => args.src_file = Some(value_of("--src", &mut it)),
            "--cache" => args.cache = parse_cache(&value_of("--cache", &mut it)),
            "--tiles" => args.tiles = Some(parse_tiles(&value_of("--tiles", &mut it))),
            "--exhaustive" => args.exhaustive = true,
            "--max-evals" => {
                let v = value_of("--max-evals", &mut it);
                args.max_evals =
                    v.parse().unwrap_or_else(|_| fail(format!("bad --max-evals value `{v}`")));
            }
            "--step" => {
                let v = value_of("--step", &mut it);
                args.step = v.parse().unwrap_or_else(|_| fail(format!("bad --step value `{v}`")));
            }
            "--baseline" => args.baseline = Some(parse_baseline(&value_of("--baseline", &mut it))),
            "--strategies" => args.strategies = Some(value_of("--strategies", &mut it)),
            "--interchange" => args.interchange = true,
            "--tile-after" => args.tile_after = true,
            "--joint" => args.joint = true,
            "--seed" => {
                let v = value_of("--seed", &mut it);
                args.seed = v.parse().unwrap_or_else(|_| fail(format!("bad --seed value `{v}`")));
            }
            "--json" => args.json = true,
            "--sequential" => args.sequential = true,
            "--addr" => args.addr = Some(value_of("--addr", &mut it)),
            "--workers" => {
                let v = value_of("--workers", &mut it);
                args.workers =
                    Some(v.parse().unwrap_or_else(|_| fail(format!("bad --workers value `{v}`"))));
            }
            "--queue" => {
                let v = value_of("--queue", &mut it);
                args.queue =
                    Some(v.parse().unwrap_or_else(|_| fail(format!("bad --queue value `{v}`"))));
            }
            "--displacement-entries" => {
                let v = value_of("--displacement-entries", &mut it);
                args.displacement_entries =
                    Some(v.parse().unwrap_or_else(|_| {
                        fail(format!("bad --displacement-entries value `{v}`"))
                    }));
            }
            "--cache-dir" => args.cache_dir = Some(value_of("--cache-dir", &mut it)),
            "--cache-entries" => {
                let v = value_of("--cache-entries", &mut it);
                args.cache_entries = Some(
                    v.parse().unwrap_or_else(|_| fail(format!("bad --cache-entries value `{v}`"))),
                );
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                exit(0)
            }
            flag if flag.starts_with("--") => fail(format!("unknown option `{flag}`")),
            _ => args.positional.push(a),
        }
    }
    args
}

impl Args {
    /// The nest named on the command line: `--nest FILE.json` (inline
    /// LoopNest JSON), `--src FILE.c` (inline kernel source), or the
    /// `KERNEL [N]` positionals (MM when omitted).
    fn nest_source(&self) -> NestSource {
        if self.nest_file.is_some() || self.src_file.is_some() {
            if self.nest_file.is_some() && self.src_file.is_some() {
                fail("--nest and --src are mutually exclusive");
            }
            if self.positional.get(1).is_some() {
                fail("give either KERNEL or --nest/--src, not both");
            }
        }
        if let Some(path) = &self.nest_file {
            let nest: LoopNest = serde_json::from_str(&read_input(path))
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            return NestSource::Inline(nest);
        }
        if let Some(path) = &self.src_file {
            let nest = cme_suite::frontend::parse(&read_input(path))
                .unwrap_or_else(|e| fail(format!("{path}: {e}")));
            return NestSource::Inline(nest);
        }
        let name = self.positional.get(1).cloned().unwrap_or_else(|| "MM".to_string());
        let size = self
            .positional
            .get(2)
            .map(|s| s.parse().unwrap_or_else(|_| fail(format!("bad problem size `{s}`"))));
        NestSource::Kernel { name, size }
    }

    fn optimize_request(&self, nest: NestSource, strategy: StrategySpec) -> OptimizeRequest {
        OptimizeRequest::new(nest, strategy).with_cache(self.cache.clone()).with_seed(self.seed)
    }

    fn session(&self) -> Session {
        Session::builder().parallel(!self.sequential).build()
    }
}

fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

fn or_die<T>(result: Result<T, ApiError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(1)
    })
}

fn print_outcome(out: &Outcome, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(out).expect("serialise outcome"));
        return;
    }
    println!("strategy {}  kernel {}  ({} ms)", out.strategy, out.kernel, out.wall_ms);
    if let Some(perm) = &out.transform.permutation {
        println!("loop order {perm:?}");
    }
    if let Some(pads) = &out.transform.pads {
        println!("pad parameters (1-based GA values: inter-lines then intra-elems): {pads:?}");
    }
    if let Some(tiles) = &out.transform.tiles {
        println!("tiles {tiles}");
    }
    println!(
        "total miss ratio {} -> {}   replacement {} -> {}",
        pct(out.before.miss_ratio()),
        pct(out.after.miss_ratio()),
        pct(out.before.replacement_ratio()),
        pct(out.after.replacement_ratio())
    );
    print_level_breakdown(&out.before, &out.after);
    if let Some(ga) = &out.ga {
        println!(
            "GA: {} generations, {} distinct evaluations (converged: {})",
            ga.generations, ga.evaluations, ga.converged
        );
    }
    if let Some(explored) = out.explored {
        println!("explored {explored} candidates");
    }
}

/// Per-level replacement ratios and the weighted cost, printed when the
/// request carried a non-legacy cache hierarchy.
fn print_level_breakdown(before: &MissEstimate, after: &MissEstimate) {
    let (Some(before_levels), Some(after_levels)) = (&before.levels, &after.levels) else {
        return;
    };
    for (k, (b, a)) in before_levels.iter().zip(after_levels).enumerate() {
        println!(
            "  L{}: {} B/{}-way @{}  replacement {} -> {}",
            k + 1,
            b.cache.size,
            b.cache.assoc,
            b.miss_latency,
            pct(b.replacement_ratio()),
            pct(a.replacement_ratio()),
        );
    }
    println!("latency-weighted cost {:.1} -> {:.1}", before.weighted_cost(), after.weighted_cost());
}

/// Render a hierarchy compactly: `1024B/32B/1-way@1` joined with ` + `.
fn render_hierarchy(h: &CacheHierarchy) -> String {
    h.levels()
        .iter()
        .map(|l| {
            format!(
                "{}B/{}B lines/{}-way @{}",
                l.spec.size, l.spec.line, l.spec.assoc, l.miss_latency
            )
        })
        .collect::<Vec<_>>()
        .join(" + ")
}

fn cmd_kernels() {
    for k in cme_suite::kernels::all_kernels() {
        println!(
            "{:<9} {:<10} depth {}  default n={:<5} {}",
            k.name, k.program, k.depth, k.default_size, k.description
        );
    }
}

fn cmd_show(args: &Args) {
    let nest = or_die(args.nest_source().resolve());
    println!("{}", display::render(&nest));
    let layout = MemoryLayout::contiguous(&nest);
    println!(
        "iterations {}  accesses {}  footprint {} KB  tileable: {:?}",
        nest.iterations(),
        nest.accesses(),
        layout.footprint(&nest) / 1024,
        cme_suite::analysis::rectangular_tiling_legality(&nest)
    );
    if let Some(tiles) = &args.tiles {
        println!("tiled by {tiles}:\n{}", display::render_tiled(&nest, tiles));
    }
}

fn cmd_analyze(args: &Args) {
    let req = AnalyzeRequest {
        nest: args.nest_source(),
        cache: args.cache.clone(),
        sampling: SamplingConfig::paper(),
        seed: args.seed,
        tiles: args.tiles.clone(),
        exhaustive: args.exhaustive,
    };
    let out = or_die(args.session().analyze(&req));
    if args.json {
        println!("{}", serde_json::to_string_pretty(&out).expect("serialise analysis"));
        return;
    }
    println!("cache {}", render_hierarchy(&out.cache));
    if let Some(rep) = &out.exact {
        for (r, c) in rep.per_ref.iter().enumerate() {
            println!(
                "ref {r}: accesses {:>10}  cold {:>9}  replacement {:>9}  hits {:>10}",
                c.points,
                c.cold,
                c.replacement,
                c.hits()
            );
        }
        let t = rep.totals();
        println!(
            "TOTAL: miss ratio {}  (cold {}, replacement {})",
            pct(t.misses() as f64 / t.points as f64),
            pct(t.cold as f64 / t.points as f64),
            pct(t.replacement as f64 / t.points as f64),
        );
        if let Some(levels) = &rep.levels {
            for (k, level) in levels.iter().enumerate() {
                let t = level.totals();
                println!(
                    "  L{}: cold {}  replacement {}  (miss latency {})",
                    k + 1,
                    pct(t.cold as f64 / t.points as f64),
                    pct(t.replacement as f64 / t.points as f64),
                    level.miss_latency,
                );
            }
            println!("latency-weighted cost {:.1}", rep.weighted_cost());
        }
    }
    if let Some(est) = &out.estimate {
        println!(
            "sampled {} of {} points{}",
            est.n_samples,
            est.volume,
            if est.exact { " (exhaustive: space smaller than sample)" } else { "" }
        );
        println!(
            "miss ratio {} ± {}  (cold {}, replacement {})",
            pct(est.miss_ratio()),
            pct(est.replacement_ci_half_width()),
            pct(est.cold_ratio()),
            pct(est.replacement_ratio()),
        );
        if let Some(levels) = &est.levels {
            for (k, level) in levels.iter().enumerate() {
                println!(
                    "  L{}: miss ratio {}  (replacement {}, miss latency {})",
                    k + 1,
                    pct(level.miss_ratio()),
                    pct(level.replacement_ratio()),
                    level.miss_latency,
                );
            }
            println!("latency-weighted cost {:.1}", est.weighted_cost());
        }
    }
}

fn cmd_tile(args: &Args) {
    let modes = [args.baseline.is_some(), args.exhaustive, args.interchange];
    if modes.iter().filter(|&&on| on).count() > 1 {
        fail("--baseline, --exhaustive and --interchange are mutually exclusive");
    }
    let strategy = if let Some(kind) = args.baseline {
        StrategySpec::Baseline { kind }
    } else if args.exhaustive {
        StrategySpec::Exhaustive { step: args.step, max_evals: args.max_evals }
    } else if args.interchange {
        StrategySpec::Interchange
    } else {
        StrategySpec::Tiling
    };
    // Build the source once: `--src -`/`--nest -` read stdin, which
    // cannot be read a second time for the tiled listing below. The
    // resolve itself stays lazy — only the non-JSON listing needs it.
    let source = args.nest_source();
    let out = or_die(args.session().run(&args.optimize_request(source.clone(), strategy)));
    print_outcome(&out, args.json);
    if !args.json {
        if let (Some(tiles), None) = (&out.transform.tiles, &out.transform.permutation) {
            let nest = or_die(source.resolve());
            println!("\n{}", display::render_tiled(&nest, tiles));
        }
    }
}

fn cmd_compare(args: &Args) {
    let strategies = match &args.strategies {
        Some(tokens) => tokens
            .split(',')
            .map(|token| {
                StrategySpec::parse_token(token.trim()).unwrap_or_else(|e| fail(e.to_string()))
            })
            .collect(),
        None => CompareRequest::default_strategies(),
    };
    // The base strategy is a placeholder — `strategies` picks the entrants.
    let base = args.optimize_request(args.nest_source(), StrategySpec::Tiling);
    let req = CompareRequest::new(base).with_strategies(strategies);
    let out = or_die(args.session().compare(&req));
    if args.json {
        println!("{}", serde_json::to_string_pretty(&out).expect("serialise comparison"));
        return;
    }
    println!(
        "tournament: {} families on {}  cache {}  ({} ms)",
        out.entries.len(),
        out.kernel,
        render_hierarchy(&out.cache),
        out.wall_ms
    );
    for (rank, entry) in out.entries.iter().enumerate() {
        let o = &entry.outcome;
        let transform = if o.transform.is_identity() {
            "unchanged".to_string()
        } else {
            let mut parts = Vec::new();
            if let Some(perm) = &o.transform.permutation {
                parts.push(format!("order {perm:?}"));
            }
            if let Some(pads) = &o.transform.pads {
                parts.push(format!("pads {pads:?}"));
            }
            if let Some(tiles) = &o.transform.tiles {
                parts.push(format!("tiles {tiles}"));
            }
            parts.join("  ")
        };
        println!(
            "{:>2}. {:<20} cost {:>12.1}  replacement {} -> {}  {}{}",
            rank + 1,
            o.strategy,
            entry.weighted_cost,
            pct(o.before.replacement_ratio()),
            pct(o.after.replacement_ratio()),
            transform,
            if rank == 0 { "  << winner" } else { "" }
        );
    }
}

fn cmd_pad(args: &Args) {
    let mode = if args.joint {
        PaddingMode::Joint
    } else if args.tile_after {
        PaddingMode::PadThenTile
    } else {
        PaddingMode::Pad
    };
    let out = or_die(
        args.session()
            .run(&args.optimize_request(args.nest_source(), StrategySpec::Padding { mode })),
    );
    print_outcome(&out, args.json);
}

fn cmd_simulate(args: &Args) {
    let nest = or_die(args.nest_source().resolve());
    let layout = MemoryLayout::contiguous(&nest);
    let accesses = nest.accesses();
    if accesses > 2_000_000_000 {
        fail(format!("refusing to simulate {accesses} accesses; pick a smaller N"));
    }
    let geo_of =
        |spec: CacheSpec| CacheGeometry { size: spec.size, line: spec.line, assoc: spec.assoc };
    if !args.cache.is_legacy() {
        // Inclusive multi-level simulation with per-level statistics —
        // also the path for a *single* level with an explicit latency,
        // so the weighted cost honours it.
        let line = args.cache.l1().line;
        if args.cache.levels().iter().any(|l| l.spec.line != line) {
            fail(
                "simulate needs one line size across hierarchy levels (back-invalidation \
                  is only defined at a single line granularity)",
            );
        }
        let levels: Vec<LevelGeometry> = args
            .cache
            .levels()
            .iter()
            .map(|l| LevelGeometry::new(geo_of(l.spec), l.miss_latency))
            .collect();
        let rep = simulate_nest_hierarchy(&nest, &layout, args.tiles.as_ref(), &levels);
        for (k, level) in rep.levels.iter().enumerate() {
            let t = level.totals();
            println!(
                "L{} (simulated): miss ratio {}  (cold {}, replacement {})  @{}",
                k + 1,
                pct(t.miss_ratio()),
                pct(t.cold as f64 / t.accesses as f64),
                pct(t.replacement_ratio()),
                rep.miss_latencies[k],
            );
        }
        println!("latency-weighted cost {:.1}", rep.weighted_cost());
        return;
    }
    let rep = simulate_nest(&nest, &layout, args.tiles.as_ref(), geo_of(args.cache.l1()));
    for (r, s) in rep.per_ref.iter().enumerate() {
        println!(
            "ref {r}: accesses {:>10}  cold {:>9}  replacement {:>9}  hits {:>10}",
            s.accesses,
            s.cold,
            s.replacement,
            s.hits()
        );
    }
    let t = rep.totals();
    println!(
        "TOTAL (simulated): miss ratio {}  (cold {}, replacement {})",
        pct(t.miss_ratio()),
        pct(t.cold as f64 / t.accesses as f64),
        pct(t.replacement_ratio()),
    );
}

fn cmd_lint(args: &Args) {
    // `--src` lints get source positions: parse with spans and pin each
    // ref-indexed diagnostic to where its reference appears in the text.
    let mut spans: Vec<cme_suite::frontend::RefSpan> = Vec::new();
    let source = if let Some(path) = &args.src_file {
        if args.nest_file.is_some() {
            fail("--nest and --src are mutually exclusive");
        }
        if args.positional.get(1).is_some() {
            fail("give either KERNEL or --nest/--src, not both");
        }
        let (nest, s) = cme_suite::frontend::parse_with_spans(&read_input(path))
            .unwrap_or_else(|e| fail(format!("{path}: {e}")));
        spans = s;
        NestSource::Inline(nest)
    } else {
        args.nest_source()
    };
    let req = LintRequest { nest: source, cache: args.cache.clone() };
    let mut out = or_die(args.session().lint(&req));
    for d in &mut out.diagnostics {
        if let (Some(ri), None) = (d.ref_index, d.line) {
            if let Some(span) = spans.get(ri) {
                *d = d.clone().at(span.line, span.col);
            }
        }
    }
    if args.json {
        println!("{}", serde_json::to_string_pretty(&out).expect("serialise lint"));
        return;
    }
    println!("kernel {}  cache {}", out.kernel, render_hierarchy(&out.cache));
    let l = &out.legality;
    println!(
        "tiling legal: {}  carried deps {}  loop-independent deps {}{}",
        l.rectangular_tiling,
        l.carried_dependences,
        l.loop_independent_dependences,
        if l.budget_exhausted { "  (analysis budget exhausted: conservative)" } else { "" }
    );
    if out.diagnostics.is_empty() {
        println!("clean: no diagnostics");
    }
    for d in &out.diagnostics {
        let pos = match (d.line, d.col) {
            (Some(line), Some(col)) => format!("{line}:{col}: "),
            _ => String::new(),
        };
        println!("{pos}{}[{}] {}", d.severity.label(), d.code, d.message);
    }
}

fn cmd_batch(args: &Args) {
    let path = args.positional.get(1).unwrap_or_else(|| usage());
    let text = read_input(path);
    let reqs: Vec<OptimizeRequest> =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let results = args.session().run_batch(&reqs);
    // The per-request status array, in request order — the stable line
    // CI scripts diff against an expected value (the JSON results go to
    // stdout, the status and summary to stderr, so `--json` output stays
    // a single parseable document).
    let statuses: Vec<&str> =
        results.iter().map(|r| if r.is_ok() { "ok" } else { "error" }).collect();
    let failed = statuses.iter().filter(|&&s| s == "error").count();
    if args.json {
        let values: Vec<serde::Value> = results
            .iter()
            .map(|r| match r {
                Ok(out) => serde_json::to_value(out),
                Err(e) => serde::Value::Object(vec![("error".into(), serde_json::to_value(e))]),
            })
            .collect();
        println!("{}", serde_json::to_string_pretty(&values).expect("serialise batch"));
    } else {
        for (k, result) in results.iter().enumerate() {
            println!("--- request {k} ---");
            match result {
                Ok(out) => print_outcome(out, false),
                Err(e) => println!("error: {e}"),
            }
        }
    }
    eprintln!("batch status: [{}]", statuses.join(", "));
    eprintln!(
        "batch summary: {} ok, {} failed of {}",
        results.len() - failed,
        failed,
        results.len()
    );
    // Scripts chain on the exit code: any failed request fails the batch.
    if failed > 0 {
        exit(1)
    }
}

fn cmd_serve(args: &Args) {
    use cme_suite::serve::{install_signal_handlers, start, ServeConfig};
    let mut config = ServeConfig::default();
    if let Some(addr) = &args.addr {
        config.addr.clone_from(addr);
    }
    if let Some(workers) = args.workers {
        config.workers = workers.max(1);
    }
    if let Some(queue) = args.queue {
        config.queue_depth = queue.max(1);
    }
    if let Some(entries) = args.cache_entries {
        config.cache_entries = entries;
    }
    if let Some(entries) = args.displacement_entries {
        config.displacement_entries = entries;
    }
    if let Some(dir) = &args.cache_dir {
        config.cache_dir = Some(dir.into());
    }
    install_signal_handlers();
    let handle = start(&config).unwrap_or_else(|e| fail(format!("bind {}: {e}", config.addr)));
    eprintln!(
        "cme serve listening on http://{}  ({} workers, queue {}, cache {} entries; \
         POST /shutdown or SIGINT to stop)",
        handle.addr(),
        config.workers,
        config.queue_depth,
        config.cache_entries
    );
    // Blocks until `/shutdown` or a signal; workers drain before exit.
    handle.join();
    eprintln!("cme serve: shut down cleanly");
}

fn main() {
    let args = parse_args();
    match args.positional.first().map(String::as_str) {
        Some("kernels") => cmd_kernels(),
        Some("show") => cmd_show(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("tile") => cmd_tile(&args),
        Some("compare") => cmd_compare(&args),
        Some("pad") => cmd_pad(&args),
        Some("simulate") => cmd_simulate(&args),
        Some("lint") => cmd_lint(&args),
        Some("batch") => cmd_batch(&args),
        Some("serve") => cmd_serve(&args),
        _ => usage(),
    }
}
