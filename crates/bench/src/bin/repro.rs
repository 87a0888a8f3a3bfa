//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all            # everything, in paper order
//! repro table1         # the results matrix, measured
//! repro table2 table3  # gadget timing tables
//! repro fig1 fig2 fig3 fig45 fig67 fig89 fig1011 fig1214 fig1516 fig1718
//! repro spdp lp        # §3.4 DP scaling, §3.1 LP quality
//! ```

use rtt_bench::experiments as exp;
use std::io::{ErrorKind, Write};

/// The one stdout writer: every report goes through it. A reader that
/// closes the pipe early (`repro all | head -c 1`) has taken all it
/// wants, so `repro` ends there, with exit 0 and nothing on stderr; any
/// other write error ends it with exit 1 and a message.
fn emit(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("repro: writing stdout: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro [all|table1|table2|table3|fig1|fig2|fig3|fig45|fig67|fig89|fig1011|fig1214|fig1516|fig1718|spdp|lp|regimes|alpha] ..."
        );
        std::process::exit(2);
    }
    let trials = std::env::var("REPRO_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4usize);
    for arg in &args {
        let reports = match arg.as_str() {
            "all" => exp::all_experiments(trials),
            "table1" => vec![exp::table1(trials)],
            "table2" => vec![exp::table2()],
            "table3" => vec![exp::table3()],
            "fig1" => vec![exp::fig1()],
            "fig2" => vec![exp::fig2()],
            "fig3" => vec![exp::fig3()],
            "fig45" => vec![exp::fig45()],
            "fig67" => vec![exp::fig67()],
            "fig89" => vec![exp::fig89()],
            "fig1011" => vec![exp::fig1011()],
            "fig1214" => vec![exp::fig1214()],
            "fig1516" => vec![exp::fig1516()],
            "fig1718" => vec![exp::fig1718()],
            "spdp" => vec![exp::spdp()],
            "lp" => vec![exp::lp_quality()],
            "regimes" => vec![exp::regimes(trials)],
            "alpha" => vec![exp::ablation_alpha(trials)],
            other => {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        };
        for r in reports {
            emit(&format!("{}\n", r.render()));
        }
    }
}
