//! Deep packet inspection of physical values (paper §6.4).
//!
//! From the decoded I-frames this module derives: the ASDU typeID census
//! (Table 7), a per-typeID transmitting-station count with inferred physical
//! semantics (Table 8), per-(station, IOA) time series, a normalised
//! variance screen that flags "interesting" physical events (the unmet-load
//! and generator-online incidents of Figs. 18–20), and the generator-online
//! signature state machine of Fig. 21.

use crate::dataset::Dataset;
use crate::exec::ExecContext;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use uncharted_iec104::asdu::IoValue;
use uncharted_iec104::types::TypeId;
use uncharted_obs::{FnvHashMap, MixHashMap};

/// Table 7: observed ASDU typeID distribution.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TypeCensus {
    /// ASDU count per typeID code.
    pub counts: BTreeMap<u8, usize>,
}

impl TypeCensus {
    /// Count every I-frame ASDU in the dataset, under an [`ExecContext`]
    /// choosing the metrics sink.
    pub fn build(ds: &Dataset, ctx: &ExecContext) -> TypeCensus {
        let m = &ctx.metrics;
        let _span = m.type_census_stage.span();
        let counts = {
            let _shard = m.type_census_stage.shard_span(0);
            let mut counts = BTreeMap::new();
            for tl in &ds.timelines {
                count_types(&mut counts, tl);
            }
            counts
        };
        let census = TypeCensus { counts };
        m.type_census_stage.add_items(census.total() as u64);
        census
    }

    /// Total ASDUs.
    pub fn total(&self) -> usize {
        self.counts.values().sum()
    }

    /// `(code, count, percentage)` sorted by count descending.
    pub fn rows(&self) -> Vec<(u8, usize, f64)> {
        let total = self.total().max(1) as f64;
        let mut rows: Vec<(u8, usize, f64)> = self
            .counts
            .iter()
            .map(|(&c, &n)| (c, n, 100.0 * n as f64 / total))
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.1));
        rows
    }

    /// Number of distinct typeIDs observed (the paper saw 13 of the 54).
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }
}

/// Inferred physical meaning of a time series (Table 8 legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum PhysicalKind {
    /// Current \[A\].
    Current,
    /// Active power \[MW\].
    ActivePower,
    /// Reactive power \[MVAr\].
    ReactivePower,
    /// Voltage \[kV\].
    Voltage,
    /// System frequency \[Hz\].
    Frequency,
    /// Discrete status (breaker/alarm).
    Status,
    /// AGC set point (control direction).
    AgcSetpoint,
    /// Interrogation (global).
    Interrogation,
    /// Could not be determined.
    Unknown,
}

impl PhysicalKind {
    /// The Table 8 symbol.
    pub fn symbol(self) -> &'static str {
        match self {
            PhysicalKind::Current => "I",
            PhysicalKind::ActivePower => "P",
            PhysicalKind::ReactivePower => "Q",
            PhysicalKind::Voltage => "U",
            PhysicalKind::Frequency => "Freq",
            PhysicalKind::Status => "Status",
            PhysicalKind::AgcSetpoint => "AGC-SP",
            PhysicalKind::Interrogation => "Inter(global)",
            PhysicalKind::Unknown => "-",
        }
    }
}

/// One extracted time series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimeSeries {
    /// Transmitting station IP.
    pub station_ip: u32,
    /// Information object address.
    pub ioa: u32,
    /// Samples `(t, value)` in time order.
    pub samples: Vec<(f64, f64)>,
    /// TypeIDs that carried this IOA.
    pub type_ids: BTreeSet<u8>,
    /// Sent by the control server (command direction)?
    pub from_server: bool,
}

impl TimeSeries {
    /// Mean of the values.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, v)| v).sum::<f64>() / self.samples.len() as f64
    }

    /// Population variance of the values.
    pub fn variance(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        self.samples
            .iter()
            .map(|(_, v)| (v - m).powi(2))
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Infer the physical quantity from the value profile — the heuristic a
    /// network observer can apply without substation documentation.
    pub fn infer_kind(&self) -> PhysicalKind {
        if self.samples.is_empty() {
            return PhysicalKind::Unknown;
        }
        if self.from_server {
            return PhysicalKind::AgcSetpoint;
        }
        let integral = self
            .samples
            .iter()
            .all(|(_, v)| (v - v.round()).abs() < 1e-9 && (0.0..=3.0).contains(v));
        if integral {
            return PhysicalKind::Status;
        }
        let m = self.mean();
        let std = self.variance().sqrt();
        // Frequency: pinned to a nominal grid frequency (50/60 Hz) with
        // tiny variance. The band is deliberately narrow — reactive power
        // can hover near 60 MVAr, but never this tightly at exactly the
        // nominal frequency.
        let near_nominal_hz = [50.0, 60.0].iter().any(|n| (m - n).abs() < 0.15);
        if near_nominal_hz && std < 0.5 {
            return PhysicalKind::Frequency;
        }
        // Voltage: transmission-level kV (Table 1 puts transmission above
        // 110 kV and below ~500 kV) held near-constant, or a 0→nominal ramp
        // (generator bus energising: max in the kV band with dark samples).
        let max = self
            .samples
            .iter()
            .map(|(_, v)| *v)
            .fold(f64::MIN, f64::max);
        if (60.0..=400.0).contains(&m) && std / m.abs().max(1.0) < 0.015 {
            return PhysicalKind::Voltage;
        }
        if (60.0..=400.0).contains(&max) && self.samples.iter().any(|(_, v)| v.abs() < 1.0) {
            return PhysicalKind::Voltage;
        }
        // Current: hundreds-to-thousands of amps, load-following. The bands
        // overlap with voltage in principle; 400 splits them for
        // transmission-level equipment (kV readings sit below ~400, phase
        // currents above it).
        if m > 400.0 && m < 20_000.0 {
            return PhysicalKind::Current;
        }
        // Power: demand-following, can be negative (reactive).
        if self.samples.iter().any(|(_, v)| *v < -0.5) {
            return PhysicalKind::ReactivePower;
        }
        if m.abs() > 0.5 {
            return PhysicalKind::ActivePower;
        }
        PhysicalKind::Unknown
    }
}

/// Extract every (station, IOA) time series from the dataset's I-frames,
/// under an [`ExecContext`] choosing the metrics sink.
pub fn series(ds: &Dataset, ctx: &ExecContext) -> Vec<TimeSeries> {
    let m = &ctx.metrics;
    let _span = m.series_stage.span();
    let out = {
        let _shard = m.series_stage.shard_span(0);
        let mut map: SeriesMap = SeriesMap::default();
        for tl in &ds.timelines {
            series_from_timeline(&mut map, tl);
        }
        sort_series(map)
    };
    m.series_extracted.add(out.len() as u64);
    m.series_stage.add_items(out.len() as u64);
    out
}

/// Per-(station, IOA, direction) series under construction.
type SeriesMap = FnvHashMap<(u32, u32, bool), TimeSeries>;

/// Tally one timeline's ASDU typeIDs. Events arrive in per-type bursts, so
/// runs are accumulated locally and flushed into the tree once per run
/// instead of paying a `BTreeMap` walk per event (totals are identical).
fn count_types(counts: &mut BTreeMap<u8, usize>, tl: &crate::dataset::PairTimeline) {
    let mut run: Option<(u8, usize)> = None;
    for ev in &tl.events {
        if let Some(asdu) = &ev.asdu {
            let code = asdu.type_id.code();
            match &mut run {
                Some((c, n)) if *c == code => *n += 1,
                _ => {
                    if let Some((c, n)) = run.take() {
                        *counts.entry(c).or_default() += n;
                    }
                    run = Some((code, 1));
                }
            }
        }
    }
    if let Some((c, n)) = run {
        *counts.entry(c).or_default() += n;
    }
}

/// Collect one timeline's samples into a per-(station, IOA, direction) map.
///
/// Samples accumulate in a per-call slot arena fronted by a last-key memo
/// (one ASDU's objects, and often whole event bursts, hit the same series),
/// then fold into `map` once per distinct series — so the shared map pays
/// one entry per series per timeline instead of one per sample. Fold order
/// is arena creation order, which matches first-appearance order, so the
/// merged sample sequences are identical to per-sample appends.
fn series_from_timeline(map: &mut SeriesMap, tl: &crate::dataset::PairTimeline) {
    let mut slots: Vec<TimeSeries> = Vec::new();
    let mut index: MixHashMap<u128, u32> = MixHashMap::default();
    let mut memo: Option<(u128, u32)> = None;
    // Last `(slot, type code)` recorded: samples arrive in per-type bursts,
    // so most iterations skip the (idempotent) type-set insert entirely.
    let mut last_type: (u32, u8) = (u32::MAX, 0);
    for ev in &tl.events {
        let Some(asdu) = &ev.asdu else { continue };
        let station = if ev.from_server {
            tl.server_ip
        } else {
            tl.outstation_ip
        };
        let type_code = asdu.type_id.code();
        for obj in &asdu.objects {
            let Some(v) = obj.value.numeric() else {
                continue;
            };
            // Interrogation commands carry no measurement.
            if matches!(obj.value, IoValue::Interrogation { .. }) {
                continue;
            }
            let t = obj
                .time_tag
                .map(|tag| tag.to_epoch_millis() as f64 / 1000.0)
                .unwrap_or(ev.t);
            let packed = ((station as u128) << 64)
                | ((obj.ioa as u128) << 1)
                | ev.from_server as u128;
            let slot = match memo {
                Some((k, i)) if k == packed => i,
                _ => {
                    let i = *index.entry(packed).or_insert_with(|| {
                        slots.push(TimeSeries {
                            station_ip: station,
                            ioa: obj.ioa,
                            samples: Vec::new(),
                            type_ids: BTreeSet::new(),
                            from_server: ev.from_server,
                        });
                        (slots.len() - 1) as u32
                    });
                    memo = Some((packed, i));
                    i
                }
            };
            let entry = &mut slots[slot as usize];
            entry.samples.push((t, v));
            if last_type != (slot, type_code) {
                entry.type_ids.insert(type_code);
                last_type = (slot, type_code);
            }
        }
    }
    for s in slots {
        match map.entry((s.station_ip, s.ioa, s.from_server)) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(s);
            }
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let entry = o.get_mut();
                entry.samples.extend(s.samples);
                entry.type_ids.extend(s.type_ids);
            }
        }
    }
}

/// Flatten the keyed series into key order (what the former BTreeMap's
/// iteration gave for free) and time-sort each one (stable, so ties keep
/// their arrival order).
fn sort_series(map: SeriesMap) -> Vec<TimeSeries> {
    let mut series: Vec<TimeSeries> = map.into_values().collect();
    series.sort_by_key(|s| (s.station_ip, s.ioa, s.from_server));
    for s in &mut series {
        s.samples.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    series
}

/// Table 8 row: typeID, transmitting-station count, inferred symbols.
#[derive(Debug, Clone, Serialize)]
pub struct Table8Row {
    /// TypeID code.
    pub type_id: u8,
    /// Distinct stations that transmitted this typeID.
    pub station_count: usize,
    /// Physical symbols inferred over all series of this type.
    pub symbols: Vec<String>,
}

/// Build Table 8 from the dataset.
pub fn table8(ds: &Dataset) -> Vec<Table8Row> {
    let series = series(ds, &ExecContext::sequential());
    let mut stations: BTreeMap<u8, BTreeSet<u32>> = BTreeMap::new();
    let mut kinds: BTreeMap<u8, BTreeSet<PhysicalKind>> = BTreeMap::new();
    for tl in &ds.timelines {
        for ev in &tl.events {
            if let Some(asdu) = &ev.asdu {
                let station = if ev.from_server {
                    tl.server_ip
                } else {
                    tl.outstation_ip
                };
                stations
                    .entry(asdu.type_id.code())
                    .or_default()
                    .insert(station);
                if asdu.type_id == TypeId::C_IC_NA_1 {
                    kinds
                        .entry(asdu.type_id.code())
                        .or_default()
                        .insert(PhysicalKind::Interrogation);
                }
            }
        }
    }
    for s in &series {
        let kind = s.infer_kind();
        if kind != PhysicalKind::Unknown {
            for &ty in &s.type_ids {
                kinds.entry(ty).or_default().insert(kind);
            }
        }
    }
    let mut rows: Vec<Table8Row> = stations
        .into_iter()
        .map(|(type_id, set)| Table8Row {
            type_id,
            station_count: set.len(),
            symbols: kinds
                .get(&type_id)
                .map(|ks| ks.iter().map(|k| k.symbol().to_string()).collect())
                .unwrap_or_default(),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.station_count));
    rows
}

/// A window flagged by the normalised-variance screen.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct VarianceEvent {
    /// Window start time.
    pub start: f64,
    /// Window end time.
    pub end: f64,
    /// Local variance relative to the series' global variance.
    pub relative_variance: f64,
}

/// Normalised variance analysis over *first differences*: split the series
/// into windows and flag those where the value was "changing more than
/// usual" (paper §6.4) — local diff-variance above `threshold` × the global
/// diff-variance. Differencing matters because SCADA points report on
/// change thresholds, which biases plain value-variance toward event
/// samples; steps and ramps only stand out in the derivative.
pub fn variance_events(series: &TimeSeries, window_s: f64, threshold: f64) -> Vec<VarianceEvent> {
    if series.samples.len() < 8 {
        return Vec::new();
    }
    let diffs: Vec<(f64, f64)> = series
        .samples
        .windows(2)
        .map(|w| (w[1].0, w[1].1 - w[0].1))
        .collect();
    let n = diffs.len() as f64;
    let mean: f64 = diffs.iter().map(|(_, d)| d).sum::<f64>() / n;
    let global: f64 = diffs.iter().map(|(_, d)| (d - mean).powi(2)).sum::<f64>() / n;
    if global <= 0.0 {
        return Vec::new();
    }
    let t0 = diffs.first().unwrap().0;
    let t1 = diffs.last().unwrap().0;
    let mut events = Vec::new();
    let mut start = t0;
    while start < t1 {
        let end = start + window_s;
        let vals: Vec<f64> = diffs
            .iter()
            .filter(|(t, _)| *t >= start && *t < end)
            .map(|(_, d)| *d)
            .collect();
        if vals.len() >= 4 {
            let m: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 = vals.iter().map(|v| (v - m).powi(2)).sum::<f64>() / vals.len() as f64;
            let rel = var / global;
            if rel > threshold {
                events.push(VarianceEvent {
                    start,
                    end,
                    relative_variance: rel,
                });
            }
        }
        start = end;
    }
    events
}

/// Align several series onto a common time grid with
/// last-observation-carried-forward semantics. Returns `(t, values)` rows,
/// one value per input series; rows start once every series has reported at
/// least once. Feed the rows to [`SignatureMachine`] or a plotter.
pub fn align_series(series: &[&TimeSeries], step_s: f64) -> Vec<(f64, Vec<f64>)> {
    if series.is_empty() || series.iter().any(|s| s.samples.is_empty()) {
        return Vec::new();
    }
    let t0 = series
        .iter()
        .map(|s| s.samples.first().unwrap().0)
        .fold(f64::MIN, f64::max);
    let t1 = series
        .iter()
        .map(|s| s.samples.last().unwrap().0)
        .fold(f64::MAX, f64::min);
    if t1 <= t0 {
        return Vec::new();
    }
    let mut cursors = vec![0usize; series.len()];
    let mut rows = Vec::new();
    let mut t = t0;
    while t <= t1 {
        let mut values = Vec::with_capacity(series.len());
        for (s, cur) in series.iter().zip(cursors.iter_mut()) {
            while *cur + 1 < s.samples.len() && s.samples[*cur + 1].0 <= t {
                *cur += 1;
            }
            values.push(s.samples[*cur].1);
        }
        rows.push((t, values));
        t += step_s;
    }
    rows
}

/// Like [`align_series`], but the grid spans the union of the series'
/// extents and each series reports `defaults[i]` before its first sample —
/// what the signature machine needs when a breaker point (which only
/// reports on change) first speaks mid-capture.
pub fn align_series_defaults(
    series: &[&TimeSeries],
    step_s: f64,
    defaults: &[f64],
) -> Vec<(f64, Vec<f64>)> {
    if series.is_empty() || series.iter().any(|s| s.samples.is_empty()) {
        return Vec::new();
    }
    assert_eq!(series.len(), defaults.len());
    let t0 = series
        .iter()
        .map(|s| s.samples.first().unwrap().0)
        .fold(f64::MAX, f64::min);
    let t1 = series
        .iter()
        .map(|s| s.samples.last().unwrap().0)
        .fold(f64::MIN, f64::max);
    let mut cursors = vec![0usize; series.len()];
    let mut rows = Vec::new();
    let mut t = t0;
    while t <= t1 {
        let mut values = Vec::with_capacity(series.len());
        for ((s, cur), &dflt) in series.iter().zip(cursors.iter_mut()).zip(defaults) {
            if s.samples[0].0 > t {
                values.push(dflt);
                continue;
            }
            while *cur + 1 < s.samples.len() && s.samples[*cur + 1].0 <= t {
                *cur += 1;
            }
            values.push(s.samples[*cur].1);
        }
        rows.push((t, values));
        t += step_s;
    }
    rows
}

/// States of the Fig. 21 generator-online signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SignatureState {
    /// Dark bus: V ≈ 0, P ≈ 0, breaker open/indeterminate.
    Offline,
    /// Voltage ramping toward nominal; still no power.
    Synchronising,
    /// At nominal voltage, breaker not yet closed.
    Ready,
    /// Breaker closed (status 2), power beginning to flow.
    Connected,
    /// Actively delivering power.
    Delivering,
}

/// The Fig. 21 state machine. Feed `(voltage, breaker_code, active_power)`
/// samples in time order; the machine only advances through the expected
/// sequence and reports violations.
#[derive(Debug, Clone, Serialize)]
pub struct SignatureMachine {
    /// Nominal voltage for the bus \[kV\].
    pub nominal_kv: f64,
    /// Power threshold that counts as "delivering" \[MW\].
    pub delivering_mw: f64,
    state: SignatureState,
    /// Transition log `(sample_index, new_state)`.
    pub transitions: Vec<(usize, SignatureState)>,
    /// Samples that contradicted the expected sequence.
    pub violations: usize,
}

impl SignatureMachine {
    /// A machine for a bus with the given nominal voltage.
    pub fn new(nominal_kv: f64) -> SignatureMachine {
        SignatureMachine {
            nominal_kv,
            delivering_mw: 10.0,
            state: SignatureState::Offline,
            transitions: Vec::new(),
            violations: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> SignatureState {
        self.state
    }

    fn advance(&mut self, idx: usize, next: SignatureState) {
        self.state = next;
        self.transitions.push((idx, next));
    }

    /// Feed one `(voltage_kv, breaker_code, power_mw)` sample.
    pub fn feed(&mut self, idx: usize, v: f64, breaker: u8, p: f64) {
        let near_nominal = v > self.nominal_kv * 0.9;
        match self.state {
            SignatureState::Offline => {
                if v > self.nominal_kv * 0.1 && breaker != 2 {
                    self.advance(idx, SignatureState::Synchronising);
                } else if breaker == 2 && near_nominal {
                    // Jumped straight to connected: not the expected ramp.
                    self.violations += 1;
                    self.advance(idx, SignatureState::Connected);
                }
            }
            SignatureState::Synchronising => {
                // Power with an open breaker is physically impossible —
                // check before any transition so the sample cannot hide
                // behind a state change.
                if p.abs() > self.delivering_mw && breaker != 2 {
                    self.violations += 1;
                }
                if near_nominal && breaker != 2 {
                    self.advance(idx, SignatureState::Ready);
                } else if breaker == 2 {
                    // Breaker closed before the voltage was ready.
                    self.violations += 1;
                    self.advance(idx, SignatureState::Connected);
                }
            }
            SignatureState::Ready => {
                if breaker == 2 {
                    self.advance(idx, SignatureState::Connected);
                } else if p.abs() > self.delivering_mw {
                    // Power without a closed breaker is physically wrong.
                    self.violations += 1;
                }
            }
            SignatureState::Connected => {
                if p > self.delivering_mw {
                    self.advance(idx, SignatureState::Delivering);
                } else if breaker != 2 {
                    self.advance(idx, SignatureState::Offline);
                }
            }
            SignatureState::Delivering => {
                if breaker != 2 || v < self.nominal_kv * 0.1 {
                    self.advance(idx, SignatureState::Offline);
                }
            }
        }
    }

    /// Run over aligned series; returns true when the full expected
    /// Offline → Synchronising → Ready → Connected → Delivering sequence was
    /// observed with no violations.
    pub fn accepts(mut self, samples: &[(f64, u8, f64)]) -> bool {
        for (i, &(v, b, p)) in samples.iter().enumerate() {
            self.feed(i, v, b, p);
        }
        let seq: Vec<SignatureState> = self.transitions.iter().map(|&(_, s)| s).collect();
        self.violations == 0
            && seq
                == vec![
                    SignatureState::Synchronising,
                    SignatureState::Ready,
                    SignatureState::Connected,
                    SignatureState::Delivering,
                ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64], from_server: bool) -> TimeSeries {
        TimeSeries {
            station_ip: 1,
            ioa: 700,
            samples: values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64, v))
                .collect(),
            type_ids: BTreeSet::from([13]),
            from_server,
        }
    }

    #[test]
    fn kind_inference() {
        assert_eq!(
            series(&[60.01, 59.99, 60.0, 60.02], false).infer_kind(),
            PhysicalKind::Frequency
        );
        assert_eq!(
            series(&[130.0, 130.2, 129.9, 130.1], false).infer_kind(),
            PhysicalKind::Voltage
        );
        assert_eq!(
            series(&[0.0, 1.0, 2.0, 2.0], false).infer_kind(),
            PhysicalKind::Status
        );
        assert_eq!(
            series(&[450.0, 455.0, 440.0, 460.0], false).infer_kind(),
            PhysicalKind::Current
        );
        assert_eq!(
            series(&[30.0, -5.0, 10.0, -2.0], false).infer_kind(),
            PhysicalKind::ReactivePower
        );
        assert_eq!(
            series(&[500.0, 400.0, 450.0], true).infer_kind(),
            PhysicalKind::AgcSetpoint
        );
        // A generator bus energising: 0 -> 130 kV ramp.
        let mut ramp: Vec<f64> = (0..20).map(|i| i as f64 * 6.5).collect();
        ramp.push(130.0);
        assert_eq!(series(&ramp, false).infer_kind(), PhysicalKind::Voltage);
    }

    #[test]
    fn variance_screen_flags_the_event_window() {
        // Flat series with a burst in [40, 60).
        let mut values = vec![100.0; 100];
        for (i, v) in values.iter_mut().enumerate() {
            if (40..60).contains(&i) {
                *v = 100.0 + ((i as f64) * 1.3).sin() * 20.0;
            }
        }
        let s = series(&values, false);
        let events = variance_events(&s, 20.0, 2.0);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.start >= 39.0 && e.end <= 61.0));
    }

    #[test]
    fn variance_screen_quiet_series_is_clean() {
        let s = series(&vec![100.0; 50], false);
        assert!(variance_events(&s, 10.0, 2.0).is_empty());
    }

    /// The canonical Fig. 20/21 sequence.
    fn generator_online_samples() -> Vec<(f64, u8, f64)> {
        let mut samples = Vec::new();
        for _ in 0..5 {
            samples.push((0.0, 1, 0.0)); // offline
        }
        for i in 1..=10 {
            samples.push((13.0 * i as f64, 1, 0.0)); // ramping to 130 kV
        }
        for _ in 0..3 {
            samples.push((130.0, 1, 0.0)); // ready
        }
        for _ in 0..2 {
            samples.push((130.0, 2, 2.0)); // connected
        }
        for i in 1..=5 {
            samples.push((130.0, 2, 30.0 * i as f64)); // delivering
        }
        samples
    }

    #[test]
    fn signature_accepts_canonical_sequence() {
        let machine = SignatureMachine::new(130.0);
        assert!(machine.accepts(&generator_online_samples()));
    }

    #[test]
    fn signature_rejects_power_before_breaker() {
        let mut samples = generator_online_samples();
        // Inject power while the breaker is still open.
        samples[12] = (130.0, 1, 80.0);
        let machine = SignatureMachine::new(130.0);
        assert!(!machine.accepts(&samples));
    }

    #[test]
    fn signature_rejects_shuffled_sequence() {
        let mut samples = generator_online_samples();
        samples.reverse();
        let machine = SignatureMachine::new(130.0);
        assert!(!machine.accepts(&samples));
    }

    #[test]
    fn align_series_locf() {
        let a = TimeSeries {
            station_ip: 1,
            ioa: 1,
            samples: vec![(0.0, 10.0), (4.0, 20.0)],
            type_ids: BTreeSet::new(),
            from_server: false,
        };
        let b = TimeSeries {
            station_ip: 1,
            ioa: 2,
            samples: vec![(1.0, 1.0), (2.0, 2.0), (6.0, 3.0)],
            type_ids: BTreeSet::new(),
            from_server: false,
        };
        let rows = align_series(&[&a, &b], 1.0);
        // Grid starts at max(first) = 1.0, ends at min(last) = 4.0.
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0], (1.0, vec![10.0, 1.0]));
        assert_eq!(rows[1], (2.0, vec![10.0, 2.0]));
        assert_eq!(rows[3], (4.0, vec![20.0, 2.0]));
    }

    #[test]
    fn signature_tracks_transitions() {
        let mut machine = SignatureMachine::new(130.0);
        for (i, &(v, b, p)) in generator_online_samples().iter().enumerate() {
            machine.feed(i, v, b, p);
        }
        assert_eq!(machine.state(), SignatureState::Delivering);
        assert_eq!(machine.violations, 0);
        assert_eq!(machine.transitions.len(), 4);
    }
}
