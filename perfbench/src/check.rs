//! The output check, run outside every timed region.
//!
//! Two independent judgments per request:
//!
//! * **bytes** — the request's NDJSON report lines must equal those of
//!   the reference run: `run_batch_cached` with one worker and no reuse
//!   cache. The closed loop runs with a reuse cache and several
//!   clients, so this also checks cache-on against cache-off and
//!   concurrency against serial order;
//! * **form** — every solved report is re-validated by the form it
//!   carries (`validate`, `validate_noreuse`, `verify_global_schedule`)
//!   and its simulated makespan must not exceed its makespan.
//!
//! The warm-up pass of every run gets both judgments. Timed passes drop
//! their reports once rendered, so they get the byte judgment only; as
//! their bytes must equal the reference's, and the warm-up has judged
//! those answers' status and form, a timed answer that passes is as
//! checked as a warm-up one.
//!
//! Any failure counts the request as failed.

use rtt_engine::{Objective, Registry, SolveReport, SolveRequest, Status};

/// The reference report lines, grouped per request in corpus order.
pub fn reference(corpus: &str) -> Result<Vec<Vec<String>>, String> {
    let registry = Registry::standard();
    let prep = rtt_engine::PrepCache::new();
    let requests = rtt_cli::build_requests(corpus, &prep, None, &registry)?;
    let ids: Vec<String> = requests.iter().map(|r| r.id.clone()).collect();
    let out = rtt_engine::run_batch_cached(&registry, requests, 1, None);
    let mut grouped: Vec<Vec<String>> = vec![Vec::new(); ids.len()];
    let mut slot = 0;
    for r in &out.reports {
        // reports come in request order; ids are unique per corpus line
        while ids[slot] != r.id {
            slot += 1;
        }
        grouped[slot].push(rtt_cli::report_line(r));
    }
    Ok(grouped)
}

/// Why a request failed the check, or `None` when it passed.
pub fn judge(
    req: &SolveRequest,
    reports: &[SolveReport],
    lines: &[String],
    expected: &[String],
) -> Option<String> {
    if lines != expected {
        return Some(format!(
            "{}: report bytes differ from the reference",
            req.id
        ));
    }
    for r in reports {
        match r.status {
            Status::Solved => {}
            // a fan-out solver declining an objective it does not serve
            // is a correct answer
            Status::Unsupported => continue,
            _ => {
                return Some(format!(
                    "{} {}: status {}: {}",
                    req.id,
                    r.solver,
                    r.status.as_str(),
                    r.detail
                ))
            }
        }
        if let Err(e) = check_form_of(req, r) {
            return Some(format!("{} {}: {e}", req.id, r.solver));
        }
    }
    None
}

fn check_form_of(req: &SolveRequest, r: &SolveReport) -> Result<(), String> {
    let arc = req.prepared.arc();
    if let Some(sol) = &r.solution {
        rtt_core::validate(arc, sol).map_err(|e| format!("routed solution invalid: {e:?}"))?;
    } else if let Some(nr) = &r.noreuse {
        rtt_core::regimes::validate_noreuse(arc, nr)
            .map_err(|e| format!("no-reuse solution invalid: {e:?}"))?;
    } else if let Some(s) = &r.schedule {
        let budget = match req.objective {
            Objective::MinMakespan { budget } => budget,
            _ => s.peak_in_use,
        };
        rtt_core::verify_global_schedule(arc, budget, s)
            .map_err(|e| format!("global schedule invalid: {e:?}"))?;
    } else {
        return Err("solved report carries no solution form".into());
    }
    let makespan = r.makespan.ok_or("solved report without a makespan")?;
    if let Some(sim) = &r.sim {
        if sim.simulated > makespan {
            return Err(format!(
                "sim_makespan {} > makespan {makespan}",
                sim.simulated
            ));
        }
    }
    Ok(())
}

/// Mean `makespan / lp_makespan` over solved reports carrying a
/// positive LP bound, with the number of reports averaged.
pub fn makespan_over_lp<'a>(reports: impl Iterator<Item = &'a SolveReport>) -> (f64, usize) {
    let (mut sum, mut n) = (0.0, 0usize);
    for r in reports {
        if let (Status::Solved, Some(m), Some(lp)) = (&r.status, r.makespan, r.lp_makespan) {
            if lp > 0.0 {
                sum += m as f64 / lp;
                n += 1;
            }
        }
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, n)
}
