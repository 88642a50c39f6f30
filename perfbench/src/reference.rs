//! Output digests and the committed reference every output is checked
//! against (`perfbench/reference.json`).
//!
//! The reference holds, per benchmark program and data size, the
//! numbers a pipeline run must reproduce exactly, and for every
//! profiling-annotated Default-size recording the digest of the profile
//! a fresh TEST tracer builds from it. `--make-reference` regenerates
//! the file; a change that alters any of these outputs fails the
//! benchmark until the reference is remade deliberately.

use std::collections::BTreeMap;
use std::fmt::{self, Debug, Write};

use jrpm::pipeline::PipelineReport;
use obs::json::{self, Value};
use test_tracer::Profile;

/// FNV-1a over formatted text, fed through `fmt::Write` so no string is
/// built.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Digest of a value's `Debug` form. Every type hashed here keeps its
/// maps ordered, so the form is deterministic.
pub fn digest(v: &impl Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{v:?}").expect("hashing into Fnv never fails");
    h.0
}

/// Digest of everything deterministic a pipeline run produces: all of
/// [`PipelineReport`] except wall-clock observability (stage timings,
/// telemetry, the points-to solver's wall time) and the per-function
/// analyses the candidates were derived from. Two reports with the
/// same digest are bit-identical in every output a user consumes.
pub fn report_digest(r: &PipelineReport) -> u64 {
    digest(&(
        r.seq_cycles,
        r.profile_cycles,
        r.annotation,
        &r.candidates.candidates,
        &r.candidates.rejected,
        (&r.rescue.rescued, &r.rescue.rejected, &r.rescue.program),
        &r.profile,
        &r.selection,
        &r.actual,
    ))
}

/// The reference numbers of one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub seq_cycles: u64,
    pub profile_cycles: u64,
    pub tracer_events: u64,
    pub fifo_evictions: u64,
    pub chosen: Vec<u32>,
    pub predicted_cycles: u64,
    pub tls_cycles: u64,
    pub profile_digest: u64,
}

impl Summary {
    pub fn of(r: &PipelineReport) -> Summary {
        Summary {
            seq_cycles: r.seq_cycles,
            profile_cycles: r.profile_cycles,
            tracer_events: r.profile.events,
            fifo_evictions: r.profile.fifo_evictions,
            chosen: r.selection.chosen.iter().map(|c| c.loop_id.0).collect(),
            predicted_cycles: r.selection.predicted_cycles,
            tls_cycles: r.actual.tls_cycles,
            profile_digest: digest(&r.profile),
        }
    }

    fn to_json(&self) -> String {
        let chosen: Vec<String> = self.chosen.iter().map(u32::to_string).collect();
        format!(
            "{{\"seq_cycles\": {}, \"profile_cycles\": {}, \"tracer_events\": {}, \
             \"fifo_evictions\": {}, \"chosen\": [{}], \"predicted_cycles\": {}, \
             \"tls_cycles\": {}, \"profile_digest\": \"{:016x}\"}}",
            self.seq_cycles,
            self.profile_cycles,
            self.tracer_events,
            self.fifo_evictions,
            chosen.join(", "),
            self.predicted_cycles,
            self.tls_cycles,
            self.profile_digest,
        )
    }

    fn from_json(v: &Value) -> Option<Summary> {
        let n = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(Summary {
            seq_cycles: n("seq_cycles")?,
            profile_cycles: n("profile_cycles")?,
            tracer_events: n("tracer_events")?,
            fifo_evictions: n("fifo_evictions")?,
            chosen: v
                .get("chosen")?
                .as_arr()?
                .iter()
                .map(|c| c.as_u64().and_then(|c| u32::try_from(c).ok()))
                .collect::<Option<_>>()?,
            predicted_cycles: n("predicted_cycles")?,
            tls_cycles: n("tls_cycles")?,
            profile_digest: hex(v.get("profile_digest")?)?,
        })
    }
}

/// The reference numbers of one annotated recording's replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplaySummary {
    pub events: u64,
    pub loop_enters: u64,
    pub loop_iters: u64,
    pub fifo_evictions: u64,
    pub profile_digest: u64,
}

impl ReplaySummary {
    /// The summary of a replayed profile; the loop event counts come
    /// from the recording itself.
    pub fn of(profile: &Profile, loop_enters: u64, loop_iters: u64) -> ReplaySummary {
        ReplaySummary {
            events: profile.events,
            loop_enters,
            loop_iters,
            fifo_evictions: profile.fifo_evictions,
            profile_digest: digest(profile),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"events\": {}, \"loop_enters\": {}, \"loop_iters\": {}, \
             \"fifo_evictions\": {}, \"profile_digest\": \"{:016x}\"}}",
            self.events,
            self.loop_enters,
            self.loop_iters,
            self.fifo_evictions,
            self.profile_digest,
        )
    }

    fn from_json(v: &Value) -> Option<ReplaySummary> {
        let n = |k: &str| v.get(k).and_then(Value::as_u64);
        Some(ReplaySummary {
            events: n("events")?,
            loop_enters: n("loop_enters")?,
            loop_iters: n("loop_iters")?,
            fifo_evictions: n("fifo_evictions")?,
            profile_digest: hex(v.get("profile_digest")?)?,
        })
    }
}

fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

/// The committed reference.
#[derive(Debug, Default)]
pub struct Reference {
    /// `(size, program) → summary`, size being `small` or `default`.
    pub pipeline: BTreeMap<(String, String), Summary>,
    /// Default-size annotated recordings, by program.
    pub recordings: BTreeMap<String, ReplaySummary>,
}

impl Reference {
    /// The reference compiled into this binary.
    pub fn committed() -> Reference {
        Reference::parse(include_str!("../reference.json"))
            .expect("perfbench/reference.json is well-formed")
    }

    fn parse(text: &str) -> Result<Reference, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        let mut r = Reference::default();
        let obj = |v: Option<&Value>, what: &str| match v {
            Some(Value::Obj(m)) => Ok(m.clone()),
            _ => Err(format!("missing object {what}")),
        };
        for (size, programs) in obj(doc.get("pipeline"), "pipeline")? {
            for (name, v) in obj(Some(&programs), &size)? {
                let s = Summary::from_json(&v).ok_or(format!("bad entry {size}/{name}"))?;
                r.pipeline.insert((size.clone(), name), s);
            }
        }
        for (name, v) in obj(doc.get("recordings"), "recordings")? {
            let s = ReplaySummary::from_json(&v).ok_or(format!("bad recording {name}"))?;
            r.recordings.insert(name, s);
        }
        Ok(r)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"pipeline\": {");
        let mut last_size = None;
        for ((size, name), s) in &self.pipeline {
            if last_size != Some(size) {
                if last_size.is_some() {
                    out.push_str("\n    },");
                }
                out.push_str(&format!("\n    {}: {{", json::quote(size)));
                last_size = Some(size);
            } else {
                out.push(',');
            }
            out.push_str(&format!("\n      {}: {}", json::quote(name), s.to_json()));
        }
        out.push_str("\n    }\n  },\n  \"recordings\": {");
        for (i, (name, s)) in self.recordings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            out.push_str(&format!(
                "{sep}\n    {}: {}",
                json::quote(name),
                s.to_json()
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Checks one pipeline run; prints the difference on a mismatch.
    pub fn check_pipeline(&self, size: &str, name: &str, got: &Summary) -> bool {
        let key = (size.to_string(), name.to_string());
        let ok = self.pipeline.get(&key) == Some(got);
        if !ok {
            eprintln!(
                "REFERENCE MISMATCH pipeline {size}/{name}: expected {:?}, got {got:?}",
                self.pipeline.get(&key)
            );
        }
        ok
    }

    /// Checks one replay; prints the difference on a mismatch.
    pub fn check_replay(&self, name: &str, profile: &Profile) -> bool {
        let want = self.recordings.get(name);
        let ok = want.is_some_and(|w| {
            w.events == profile.events
                && w.fifo_evictions == profile.fifo_evictions
                && w.profile_digest == digest(profile)
        });
        if !ok {
            eprintln!(
                "REFERENCE MISMATCH replay {name}: expected {want:?}, got events {} evictions {} \
                 digest {:016x}",
                profile.events,
                profile.fifo_evictions,
                digest(profile)
            );
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_reference_round_trips() {
        let r = Reference::committed();
        assert_eq!(r.pipeline.len(), 2 * benchsuite::all().len());
        assert_eq!(r.recordings.len(), benchsuite::all().len());
        let again = Reference::parse(&r.to_json()).expect("re-parse");
        assert_eq!(again.pipeline, r.pipeline);
        assert_eq!(again.recordings, r.recordings);
    }
}
