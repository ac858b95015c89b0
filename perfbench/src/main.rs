//! ```text
//! perfbench --workload <repro_quick|whatif|sched_faults>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload and prints, as its last stdout line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. A traced run also
//! writes its spans and per-layer table under `.perfbench_out/`.

use std::io::Write as _;

use perfbench::trace::Tracer;
use perfbench::{Opts, Workload, DEFAULT_SECONDS, DEFAULT_SEED, END_TO_END, PER_LAYER, THREADS};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <repro_quick|whatif|sched_faults> [--seed N] [--seconds S] [--trace 0|1]"
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} takes an unsigned integer")))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number().max(1),
            "--trace" => {
                trace = match number() {
                    0 => false,
                    1 => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Opts {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    }
}

fn main() {
    let opts = parse_args();
    // The program's own fan-out (sim-sweep) honours this; everything the
    // benchmark itself calls runs on this thread.
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let name = opts.workload.name();
    let run_id = cloudsim::sim_sweep::cell_seed(opts.seed, std::process::id() as u64);
    let mut tracer = Tracer::new(opts.trace, run_id);

    let out = perfbench::run(&opts, &mut tracer);

    for line in out.digests.lines(name) {
        println!("digest {line}");
    }
    if opts.is_reference() {
        println!("# digests checked against reference/digests.txt");
    } else {
        println!(
            "# digest check skipped: seed {} / {} s is not the reference run (seed {DEFAULT_SEED}, {DEFAULT_SECONDS} s); invariants checked",
            opts.seed, opts.seconds
        );
    }
    let tail = perfbench::stats::tail(&out.measured.calls);
    println!(
        "# call_tail_ms is p{:.2} of {} calls; {} ops in {:.3} host s",
        tail.pct, tail.n, out.measured.ops, out.measured.wall_s
    );
    let h = out.host_factor(opts.workload);
    println!(
        "# host ran {h:.4}x the reference time of the probe ({} probes, reference {} ms); \
         time metrics are host seconds / {h:.4}",
        out.measured.probes.len(),
        perfbench::host::REFERENCE_PROBE_S * 1e3
    );
    for d in &out.defects {
        println!("# known defect, reported but not failed: {d}");
    }
    for v in &out.violations {
        eprintln!("perfbench: {name}: {v}");
    }
    let correct = out.failed == 0 && out.violations.is_empty();

    let metrics: Vec<(&str, &str, f64)> = if opts.trace {
        let table: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|(m, unit)| {
                let v = out.layers.iter().find(|(n, _)| n == m).map_or(0.0, |x| x.1);
                (*m, *unit, v)
            })
            .collect();
        let dir = std::path::Path::new(".perfbench_out");
        let stem = format!("{name}-seed{}", opts.seed);
        if let Err(e) = tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl"))) {
            eprintln!("perfbench: writing spans: {e}");
        }
        let text: String = table
            .iter()
            .map(|(m, unit, v)| format!("{m:<28} {v:>16.6} {unit}\n"))
            .collect();
        eprint!("{text}");
        if let Err(e) = std::fs::write(dir.join(format!("{stem}.layers.txt")), &text) {
            eprintln!("perfbench: writing per-layer table: {e}");
        }
        table
    } else {
        END_TO_END
            .iter()
            .zip(out.end_to_end(opts.workload))
            .map(|((m, unit), v)| (*m, *unit, v))
            .collect()
    };
    // A metric that could not be measured fails the run; JSON has no NaN.
    let unmeasured: Vec<&str> = metrics
        .iter()
        .filter(|m| !m.2.is_finite())
        .map(|m| m.0)
        .collect();
    if !unmeasured.is_empty() {
        eprintln!("perfbench: {name}: not measured: {}", unmeasured.join(", "));
    }
    let metrics: Vec<(&str, &str, f64)> = metrics
        .into_iter()
        .map(|(m, unit, v)| (m, unit, if v.is_finite() { v } else { 0.0 }))
        .collect();
    let correct = correct && unmeasured.is_empty();
    println!("{}", perfbench::result_json(correct, &out, &metrics));
    std::io::stdout().flush().expect("flush stdout");
}
