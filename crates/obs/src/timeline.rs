//! Per-job timelines: the human-readable view of a job's trace.
//!
//! A [`JobTimeline`] is assembled from the [`TraceEvent`]s a job's record
//! holds, normalised so the first event is offset zero.  Timelines
//! serialize with serde to cross the wire; they are built from the record
//! on request and never persisted, so `micrograd-cli trace <job-id>`
//! answers for as long as the daemon holds the job's record.
//!
//! Offsets are observability metadata only: two runs of the same job will
//! produce different timelines and identical reports.

use crate::trace::TraceEvent;
use serde::{Deserialize, Serialize};

/// One stage mark on a job's timeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineMark {
    /// Stage name ([`crate::trace::Stage::name`]).
    pub stage: String,
    /// Nanoseconds since the timeline's first event.
    pub offset_ns: u64,
    /// Stage-specific detail (epoch index, store-hit flag), when non-zero.
    #[serde(default)]
    pub detail: u64,
}

/// A job's lifecycle, from first trace event to terminal stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobTimeline {
    /// The job the timeline describes.
    pub job: u64,
    /// Monotonic timestamp of the first event ([`crate::clock::now_ns`]
    /// domain); anchors the marks' offsets.
    pub started_ns: u64,
    /// Stage marks in event order.
    pub marks: Vec<TimelineMark>,
}

impl JobTimeline {
    /// Builds a timeline from a job's trace events, in the order they
    /// were recorded.  Returns `None` when there are no events to anchor
    /// on.
    #[must_use]
    pub fn from_events(job: u64, events: &[TraceEvent]) -> Option<JobTimeline> {
        let first = events.first()?;
        let started_ns = first.at_ns;
        let marks = events
            .iter()
            .map(|e| TimelineMark {
                stage: e.stage.name().to_string(),
                offset_ns: e.at_ns.saturating_sub(started_ns),
                detail: e.arg,
            })
            .collect();
        Some(JobTimeline {
            job,
            started_ns,
            marks,
        })
    }

    /// Total nanoseconds from the first mark to the last.
    #[must_use]
    pub fn span_ns(&self) -> u64 {
        self.marks.last().map_or(0, |m| m.offset_ns)
    }

    /// Renders the timeline as an aligned text table:
    ///
    /// ```text
    /// job 42 timeline (total 18.3ms)
    ///   +0.000ms      received
    ///   +0.012ms      queued
    ///   ...
    /// ```
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "job {} timeline (total {})",
            self.job,
            format_ns(self.span_ns())
        );
        for mark in &self.marks {
            let offset = format!("+{}", format_ns(mark.offset_ns));
            if mark.stage == "epoch" {
                let _ = writeln!(out, "  {offset:<14}{} {}", mark.stage, mark.detail);
            } else if mark.detail != 0 {
                let _ = writeln!(out, "  {offset:<14}{} ({})", mark.stage, mark.detail);
            } else {
                let _ = writeln!(out, "  {offset:<14}{}", mark.stage);
            }
        }
        out
    }
}

/// Formats nanoseconds with an adaptive unit (`ns`, `µs`, `ms`, `s`).
fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{}.{:03}µs", ns / 1_000, ns % 1_000)
    } else if ns < 1_000_000_000 {
        let us = ns / 1_000;
        format!("{}.{:03}ms", us / 1_000, us % 1_000)
    } else {
        let ms = ns / 1_000_000;
        format!("{}.{:03}s", ms / 1_000, ms % 1_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Stage;

    fn event(stage: Stage, arg: u64, at_ns: u64) -> TraceEvent {
        TraceEvent { stage, arg, at_ns }
    }

    #[test]
    fn builds_offsets_from_first_event() {
        let events = [
            event(Stage::Received, 0, 5_000),
            event(Stage::Queued, 0, 6_500),
            event(Stage::Epoch, 2, 2_000_000),
            event(Stage::Completed, 0, 3_000_000),
        ];
        let tl = JobTimeline::from_events(42, &events).expect("non-empty");
        assert_eq!(tl.job, 42);
        assert_eq!(tl.started_ns, 5_000);
        assert_eq!(tl.marks[0].offset_ns, 0);
        assert_eq!(tl.marks[1].offset_ns, 1_500);
        assert_eq!(tl.marks[2].stage, "epoch");
        assert_eq!(tl.marks[2].detail, 2);
        assert_eq!(tl.span_ns(), 2_995_000);
        assert_eq!(JobTimeline::from_events(42, &[]), None);
    }

    #[test]
    fn renders_each_mark_on_its_own_line() {
        let events = [
            event(Stage::Received, 0, 0),
            event(Stage::Epoch, 1, 1_200),
            event(Stage::Persisted, 0, 2_400),
        ];
        let tl = JobTimeline::from_events(42, &events).expect("non-empty");
        let text = tl.render();
        assert!(text.starts_with("job 42 timeline"));
        assert!(text.contains("received"));
        assert!(text.contains("epoch 1"));
        assert!(text.contains("persisted"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn serde_round_trip() {
        let events = [
            event(Stage::Received, 0, 100),
            event(Stage::Completed, 0, 900),
        ];
        let tl = JobTimeline::from_events(42, &events).expect("non-empty");
        let json = serde_json::to_string(&tl).expect("serialize");
        let back: JobTimeline = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, tl);
    }

    #[test]
    fn format_ns_picks_adaptive_units() {
        assert_eq!(format_ns(37), "37ns");
        assert_eq!(format_ns(1_500), "1.500µs");
        assert_eq!(format_ns(2_250_000), "2.250ms");
        assert_eq!(format_ns(3_000_000_000), "3.000s");
    }
}
