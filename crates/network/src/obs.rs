//! The telemetry collector: the mutating half of the `dfly-obs` layer.
//!
//! `dfly-obs` holds the passive data structures (profiles, sample series,
//! histograms, reports); this module fills them from live
//! [`ChannelState`], the same privileged view the audit layer uses.
//! Collection never perturbs the simulation: no event is scheduled and
//! no engine counter is touched, so obs-on and obs-off runs are
//! bit-identical (`tests/determinism.rs` enforces it). The only channel
//! state the collector writes is its own `in_active` flag.
//!
//! Event timing is stride-sampled (see [`ObsCollector::timing_due`]):
//! every event is counted, every Nth per kind is timed, so the obs-on
//! path pays O(1/N) clock reads. Sample windows land on the aligned grid
//! `interval, 2*interval, ...` of simulation time: when events are
//! sparse and time jumps over several boundaries at once, the collector
//! emits one catch-up window per crossed boundary instead of a single
//! oversized one, so `SampleSeries` spacing stays uniform.
//!
//! A window costs O(channels holding bytes), not O(channels x VCs):
//!
//! * **Active list.** The engine hands a channel to
//!   [`ObsCollector::activate`] when its occupancy leaves zero or one of
//!   its VCs is marked full. The channel's `in_active` flag keeps it on
//!   the list exactly once. A window visits only listed channels and
//!   drops the ones that are empty and not full again. An unlisted
//!   channel has no queued bytes, no open saturation interval and only
//!   empty VCs, so it adds nothing but zeros to any window.
//! * **Running counters.** Per-class busy time grows at transmission
//!   start ([`ObsCollector::note_busy`]) and closed saturation time when
//!   a full interval closes ([`ObsCollector::note_saturation`]): both
//!   equal the sums over every channel that a full sweep would take.
//!   Queued bytes and the open part of saturation come from the list.
//! * **Bulk zero credit.** The VC histogram records the VCs of listed
//!   channels that hold bytes one by one and credits every other VC to
//!   bucket zero in one add. Counts are integers, so the histogram does
//!   not depend on visit order.
//!
//! Test builds replay the historical exhaustive sweep beside the active
//! list and assert both give the same samples, histogram and digest.

use crate::channel::ChannelState;
use crate::metrics::class_index;
use crate::packet::MAX_ROUTE_LEN;
use crate::params::NetworkParams;
use dfly_engine::Ns;
use dfly_obs::{
    EventKind, EventLoopProfile, LinkDigest, MetricsMode, NetSample, ObsClock, ObsReport,
    OccupancyHistogram, RouteStats, SampleSeries, OBS_CLASSES,
};
use dfly_topology::{ChannelClass, ChannelId, Topology};

/// Channels per class (dense class order) of `topo`, the utilization
/// denominators.
pub(crate) fn class_counts(topo: &Topology) -> [u64; 5] {
    OBS_CLASSES.map(|(class, _)| topo.class_channel_count(class) as u64)
}

/// Collects telemetry for one network over its lifetime.
pub(crate) struct ObsCollector {
    profile: EventLoopProfile,
    series: SampleSeries,
    vc_occupancy: OccupancyHistogram,
    /// Metric storage discipline (dense = historical exact structures).
    mode: MetricsMode,
    /// Seed for the streaming link digest's reservoirs.
    digest_seed: u64,
    /// Per-link-class digest, rebuilt at every close (streaming only).
    digest: Option<LinkDigest>,
    /// The wall-clock source for handler timing.
    clock: ObsClock,
    /// Coarse timing was requested but the platform lacks a coarse source.
    coarse_unavailable: bool,
    /// Time every Nth event per kind (1 = exhaustive).
    stride: u32,
    /// Per-kind countdown until the next timed event.
    until_timed: [u32; 4],
    /// Next aligned simulation time at which a sweep is due.
    next_sample: Ns,
    /// Start of the current sampling window.
    last_sample_at: Ns,
    /// Channels that may hold bytes or an open saturation interval, each
    /// listed once (mirrored by `ChannelState::in_active`).
    active: Vec<ChannelId>,
    /// Running per-class sum of every channel's `busy_time`.
    busy_ns: [u64; 5],
    /// Running per-class sum of every channel's closed `saturated` time.
    closed_stall_ns: [u64; 5],
    /// Cumulative per-class busy time at the last sweep (delta base).
    prev_busy_ns: [u64; 5],
    /// Cumulative per-class saturated time at the last sweep.
    prev_stall_ns: [u64; 5],
    /// Cumulative UGAL counters at the last sweep.
    prev_minimal: u64,
    prev_nonminimal: u64,
    /// Channels per class over the whole machine.
    class_counts: [u64; 5],
    /// Shard mode: which channels this replica owns. Occupancy histogram
    /// readings are restricted to owned channels so a sharded run's merged
    /// histogram matches a serial sweep (unowned channels are always empty
    /// here and would flood bucket zero). Busy/stall/queued sums need no
    /// mask — unowned channels contribute zeros.
    owned: Option<Vec<bool>>,
    /// Channels whose VCs the histogram covers: every channel, or the
    /// owned ones in shard mode.
    owned_count: u64,
    /// Exhaustive reference sweep, replayed beside the active list.
    #[cfg(test)]
    reference: reference::Reference,
}

impl ObsCollector {
    /// Default sampling interval: 50 µs of simulation time — fine enough
    /// to resolve the paper's millisecond-scale communication phases,
    /// coarse enough that a long run stays within the series cap.
    pub(crate) const DEFAULT_INTERVAL: Ns = Ns(50_000);

    /// Retained-sample cap of the coarsening series in streaming mode
    /// (4 Ki samples ≈ 600 KiB): long runs double their effective
    /// sampling stride instead of dropping the tail.
    pub(crate) const STREAM_SERIES_CAP: usize = 4096;

    /// Fresh collector sampling every `interval` of simulation time,
    /// timing every `stride`th event per kind with a precise or `coarse`
    /// clock, reusing `sample_buf`'s capacity for the series. `mode`
    /// picks dense (exact, historical) or streaming (bounded) metric
    /// storage; `digest_seed` seeds the streaming reservoirs;
    /// `class_counts` is the machine's [`class_counts`].
    pub(crate) fn new(
        interval: Ns,
        stride: u32,
        coarse_clock: bool,
        mode: MetricsMode,
        digest_seed: u64,
        sample_buf: Vec<NetSample>,
        class_counts: [u64; 5],
    ) -> ObsCollector {
        assert!(stride >= 1, "obs stride must be at least 1");
        let clock = ObsClock::new(coarse_clock);
        let make_series = |buf| {
            if mode.is_streaming() {
                SampleSeries::bounded_with_buffer(interval, Self::STREAM_SERIES_CAP, buf)
            } else {
                SampleSeries::with_buffer(interval, buf)
            }
        };
        ObsCollector {
            profile: EventLoopProfile::new(),
            series: make_series(sample_buf),
            vc_occupancy: OccupancyHistogram::new(),
            mode,
            digest_seed,
            digest: None,
            coarse_unavailable: coarse_clock && !clock.is_coarse(),
            clock,
            stride,
            // Zero countdowns: the first event of each kind is timed, so
            // short runs still get a cost estimate for every kind.
            until_timed: [0; 4],
            next_sample: interval,
            last_sample_at: Ns::ZERO,
            active: Vec::new(),
            busy_ns: [0; 5],
            closed_stall_ns: [0; 5],
            prev_busy_ns: [0; 5],
            prev_stall_ns: [0; 5],
            prev_minimal: 0,
            prev_nonminimal: 0,
            class_counts,
            owned: None,
            owned_count: class_counts.iter().sum(),
            #[cfg(test)]
            reference: reference::Reference::new(make_series(Vec::new())),
        }
    }

    /// Restrict occupancy-histogram readings to the channels marked true
    /// (shard mode; see the `owned` field).
    pub(crate) fn set_owned_mask(&mut self, owned: Vec<bool>) {
        self.owned_count = owned.iter().filter(|&&o| o).count() as u64;
        self.owned = Some(owned);
    }

    /// The sampling interval.
    pub(crate) fn interval(&self) -> Ns {
        self.series.interval()
    }

    /// Take the sample storage back out for arena recycling.
    pub(crate) fn take_sample_buffer(&mut self) -> Vec<NetSample> {
        self.series.take_buffer()
    }

    /// The active list (audit cross-check).
    pub(crate) fn active(&self) -> &[ChannelId] {
        &self.active
    }

    /// Put channel `id` on the active list unless it is already there.
    /// The engine calls this when the channel's occupancy leaves zero or
    /// one of its VCs is marked full.
    #[inline]
    pub(crate) fn activate(&mut self, id: ChannelId, ch: &mut ChannelState) {
        if !ch.in_active {
            ch.in_active = true;
            self.active.push(id);
        }
    }

    /// A transmission of `ser` started on a channel of `class` (the
    /// engine just added `ser` to its `busy_time`).
    #[inline]
    pub(crate) fn note_busy(&mut self, class: ChannelClass, ser: Ns) {
        self.busy_ns[class_index(class)] += ser.as_nanos();
    }

    /// A channel of `class` closed a full interval of length `closed`
    /// (the value `ChannelState::clear_full` returned).
    #[inline]
    pub(crate) fn note_saturation(&mut self, class: ChannelClass, closed: Ns) {
        self.closed_stall_ns[class_index(class)] += closed.as_nanos();
    }

    /// Decide whether the upcoming event of `kind` gets its handler
    /// timed, advancing the per-kind stride countdown.
    #[inline]
    pub(crate) fn timing_due(&mut self, kind: EventKind) -> bool {
        let slot = &mut self.until_timed[kind.index()];
        if *slot == 0 {
            *slot = self.stride - 1;
            true
        } else {
            *slot -= 1;
            false
        }
    }

    /// Read the profiling clock (only meaningful around a timed event).
    #[inline]
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Record one handled event into the profile: timed when
    /// [`ObsCollector::timing_due`] picked it (then `started` carries the
    /// pre-handler clock read), counted otherwise.
    #[inline]
    pub(crate) fn note_event(&mut self, kind: EventKind, started: Option<u64>, queue_depth: usize) {
        match started {
            Some(t0) => {
                let elapsed = self.clock.now_ns().saturating_sub(t0);
                self.profile.record_timed(kind, elapsed, queue_depth);
            }
            None => self.profile.record_counted(kind, queue_depth),
        }
    }

    /// True once simulation time has reached the next sweep boundary.
    #[inline]
    pub(crate) fn sample_due(&self, now: Ns) -> bool {
        now >= self.next_sample
    }

    /// Emit one window per aligned boundary crossed by `now`. Sparse
    /// traffic that jumps several intervals between events gets uniform
    /// catch-up windows (saturation interpolates via its interval
    /// bookkeeping; busy/queued state cannot change without events).
    pub(crate) fn sample(
        &mut self,
        now: Ns,
        channels: &mut [ChannelState],
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        while self.next_sample <= now {
            let at = self.next_sample;
            self.push_window(at, channels, params, route);
            self.next_sample = at + self.series.interval();
        }
    }

    /// Emit every due aligned window, then close the partial tail window
    /// at `now`. Called once when a report is taken; safe to repeat (a
    /// zero-width tail is skipped, and the streaming digest is an
    /// idempotent rebuild from cumulative channel counters).
    pub(crate) fn close(
        &mut self,
        now: Ns,
        channels: &mut [ChannelState],
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        self.sample(now, channels, params, route);
        self.push_window(now, channels, params, route);
        self.series.finalize_tail();
        if let Some(k) = self.mode.reservoir_k() {
            // Rebuild from scratch: channel counters are cumulative, so
            // a repeated close must not double-count. Reservoir tags are
            // drawn per observed channel, so every owned channel is
            // digested in index order, idle ones included. In shard mode
            // the drain merges per-group digests in fixed group order.
            let mut digest = LinkDigest::new(k as usize, self.digest_seed);
            let owned = self.owned.as_deref();
            for (i, ch) in channels.iter().enumerate() {
                if owned.is_some_and(|m| !m[i]) {
                    continue;
                }
                digest.observe_channel(class_index(ch.class), ch.traffic, ch.saturated_until(now));
            }
            self.digest = Some(digest);
        }
        #[cfg(test)]
        self.reference.close(
            now,
            channels,
            self.owned.as_deref(),
            self.mode,
            self.digest_seed,
        );
    }

    /// Visit the active list and push one sample covering the window
    /// `(last_sample_at, at]`. A zero-width window is skipped — there is
    /// nothing to attribute to it.
    fn push_window(
        &mut self,
        at: Ns,
        channels: &mut [ChannelState],
        params: &NetworkParams,
        route: Option<&RouteStats>,
    ) {
        if at <= self.last_sample_at {
            return;
        }
        let mut stall_ns = self.closed_stall_ns;
        let mut queued = [0u64; 5];
        // VC readings taken one by one; every other covered VC is empty.
        let mut recorded = 0u64;
        let owned = self.owned.as_deref();
        let hist = &mut self.vc_occupancy;
        #[cfg(test)]
        let visited = self.active.len();
        self.active.retain(|&id| {
            let ch = &mut channels[id.index()];
            let ci = class_index(ch.class);
            stall_ns[ci] += ch.open_saturation(at).as_nanos();
            queued[ci] += ch.total_occupancy;
            if ch.total_occupancy > 0 && owned.is_none_or(|m| m[id.index()]) {
                let cap = params.vc_capacity(ch.class) as f64;
                for vc in ch.vcs.iter().filter(|vc| vc.occupancy > 0) {
                    hist.record(vc.occupancy as f64 / cap);
                    recorded += 1;
                }
            }
            ch.in_active = ch.total_occupancy > 0 || ch.full_vcs > 0;
            ch.in_active
        });
        hist.record_zeros(self.owned_count * MAX_ROUTE_LEN as u64 - recorded);

        let window = (at - self.last_sample_at).as_nanos() as f64;
        let mut sample = NetSample {
            at,
            ..NetSample::default()
        };
        for (i, _) in OBS_CLASSES.iter().enumerate() {
            // Mean utilization across the class's channels. Transmission
            // time is credited in full at tx start, so the window quotient
            // can transiently exceed 1 — clamp.
            let denom = window * self.class_counts[i].max(1) as f64;
            let busy_delta = self.busy_ns[i].saturating_sub(self.prev_busy_ns[i]) as f64;
            sample.util[i] = (busy_delta / denom).min(1.0);
            sample.stall_ns[i] = stall_ns[i].saturating_sub(self.prev_stall_ns[i]);
            sample.queued_bytes[i] = queued[i];
            self.prev_busy_ns[i] = self.busy_ns[i];
            self.prev_stall_ns[i] = stall_ns[i];
        }
        if let Some(r) = route {
            sample.minimal_taken = r.minimal_taken - self.prev_minimal;
            sample.nonminimal_taken = r.nonminimal_taken - self.prev_nonminimal;
            self.prev_minimal = r.minimal_taken;
            self.prev_nonminimal = r.nonminimal_taken;
        }
        #[cfg(test)]
        self.reference.check_window(
            visited,
            at,
            self.last_sample_at,
            channels,
            params,
            route,
            self.owned.as_deref(),
            &sample,
            &self.vc_occupancy,
        );
        self.series.push(sample);
        self.last_sample_at = at;
    }

    /// Approximate heap bytes of the collector's metric structures (the
    /// sample series plus the streaming digest, if any).
    pub(crate) fn approx_metric_bytes(&self) -> usize {
        self.series.approx_bytes() + self.digest.as_ref().map_or(0, LinkDigest::approx_bytes)
    }

    /// Bundle everything collected into a report. `queue_high_water` comes
    /// from the event queue (it sees peaks between profiled events);
    /// `route` is the cumulative UGAL ledger from the route computer.
    pub(crate) fn report(&self, queue_high_water: usize, route: Option<&RouteStats>) -> ObsReport {
        #[cfg(test)]
        self.reference
            .check_report(&self.series, self.digest.as_ref());
        let mut profile = self.profile.clone();
        profile.queue_high_water = profile.queue_high_water.max(queue_high_water);
        ObsReport {
            profile,
            series: self.series.clone(),
            vc_occupancy: self.vc_occupancy,
            route: route.copied().unwrap_or_default(),
            link_digest: self.digest.clone(),
            coarse_unavailable: self.coarse_unavailable,
        }
    }
}

/// The historical exhaustive sweep, kept as the test-build reference for
/// the active-list windows: every channel, every VC, every window.
#[cfg(test)]
mod reference {
    use super::*;

    /// Channels per class (dense class order), by a full pass.
    pub(super) fn class_counts(channels: &[ChannelState]) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for ch in channels {
            counts[class_index(ch.class)] += 1;
        }
        counts
    }

    pub(super) struct Reference {
        series: SampleSeries,
        vc_occupancy: OccupancyHistogram,
        digest: Option<LinkDigest>,
        prev_busy_ns: [u64; 5],
        prev_stall_ns: [u64; 5],
        prev_minimal: u64,
        prev_nonminimal: u64,
        /// Windows checked, and the most channels one window visited.
        pub(super) windows: u64,
        pub(super) max_visited: usize,
    }

    impl Reference {
        pub(super) fn new(series: SampleSeries) -> Reference {
            Reference {
                series,
                vc_occupancy: OccupancyHistogram::new(),
                digest: None,
                prev_busy_ns: [0; 5],
                prev_stall_ns: [0; 5],
                prev_minimal: 0,
                prev_nonminimal: 0,
                windows: 0,
                max_visited: 0,
            }
        }

        /// Sweep every channel for the window `(last, at]` and assert the
        /// active-list `sample` and histogram `hist` agree with it.
        /// `visited` is how many channels the active list visited.
        #[allow(clippy::too_many_arguments)]
        pub(super) fn check_window(
            &mut self,
            visited: usize,
            at: Ns,
            last: Ns,
            channels: &[ChannelState],
            params: &NetworkParams,
            route: Option<&RouteStats>,
            owned: Option<&[bool]>,
            sample: &NetSample,
            hist: &OccupancyHistogram,
        ) {
            let mut busy_ns = [0u64; 5];
            let mut stall_ns = [0u64; 5];
            let mut queued = [0u64; 5];
            let mut touched = 0usize;
            for (i, ch) in channels.iter().enumerate() {
                let ci = class_index(ch.class);
                busy_ns[ci] += ch.busy_time.as_nanos();
                stall_ns[ci] += ch.saturated_until(at).as_nanos();
                queued[ci] += ch.total_occupancy;
                if ch.traffic > 0 || ch.total_occupancy > 0 || ch.full_vcs > 0 {
                    touched += 1;
                }
                if owned.is_some_and(|m| !m[i]) {
                    continue;
                }
                let cap = params.vc_capacity(ch.class) as f64;
                for vc in &ch.vcs {
                    self.vc_occupancy.record(vc.occupancy as f64 / cap);
                }
            }
            let class_counts = class_counts(channels);
            let window = (at - last).as_nanos() as f64;
            let mut expect = NetSample {
                at,
                ..NetSample::default()
            };
            for i in 0..OBS_CLASSES.len() {
                let denom = window * class_counts[i].max(1) as f64;
                let busy_delta = busy_ns[i].saturating_sub(self.prev_busy_ns[i]) as f64;
                expect.util[i] = (busy_delta / denom).min(1.0);
                expect.stall_ns[i] = stall_ns[i].saturating_sub(self.prev_stall_ns[i]);
                expect.queued_bytes[i] = queued[i];
                self.prev_busy_ns[i] = busy_ns[i];
                self.prev_stall_ns[i] = stall_ns[i];
            }
            if let Some(r) = route {
                expect.minimal_taken = r.minimal_taken - self.prev_minimal;
                expect.nonminimal_taken = r.nonminimal_taken - self.prev_nonminimal;
                self.prev_minimal = r.minimal_taken;
                self.prev_nonminimal = r.nonminimal_taken;
            }
            assert_eq!(
                *sample, expect,
                "active-list window differs from the full sweep"
            );
            assert_eq!(
                *hist, self.vc_occupancy,
                "active-list VC histogram differs from the full sweep at {at:?}"
            );
            assert!(
                visited <= touched,
                "window at {at:?} visited {visited} channels, only {touched} ever held bytes"
            );
            self.series.push(expect);
            self.windows += 1;
            self.max_visited = self.max_visited.max(visited);
        }

        /// Close the series tail and digest every owned channel.
        pub(super) fn close(
            &mut self,
            now: Ns,
            channels: &[ChannelState],
            owned: Option<&[bool]>,
            mode: MetricsMode,
            seed: u64,
        ) {
            self.series.finalize_tail();
            self.digest = mode.reservoir_k().map(|k| {
                let mut digest = LinkDigest::new(k as usize, seed);
                for (i, ch) in channels.iter().enumerate() {
                    if owned.is_none_or(|m| m[i]) {
                        digest.observe_channel(
                            class_index(ch.class),
                            ch.traffic,
                            ch.saturated_until(now),
                        );
                    }
                }
                digest
            });
        }

        /// The reported series and digest must be the ones the full
        /// sweeps built.
        pub(super) fn check_report(&self, series: &SampleSeries, digest: Option<&LinkDigest>) {
            assert_eq!(
                *series, self.series,
                "active-list series differs from the full sweep"
            );
            match (digest, self.digest.as_ref()) {
                (None, None) => {}
                (Some(a), Some(b)) => assert!(
                    digests_equal(a, b),
                    "link digest differs from the full sweep's"
                ),
                _ => panic!("link digest present on one side only"),
            }
        }
    }

    /// Field-wise digest equality: retained reservoir values plus both
    /// exact summaries, per class.
    pub(super) fn digests_equal(a: &LinkDigest, b: &LinkDigest) -> bool {
        a.reservoir_k() == b.reservoir_k()
            && (0..OBS_CLASSES.len()).all(|c| {
                let (x, y) = (a.class(c), b.class(c));
                x.traffic_mb.values() == y.traffic_mb.values()
                    && x.traffic_mb.seen() == y.traffic_mb.seen()
                    && x.traffic_bytes == y.traffic_bytes
                    && x.saturated_ms == y.saturated_ms
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfly_engine::Bandwidth;
    use dfly_topology::ChannelClass;

    fn collector(interval: Ns) -> ObsCollector {
        collector_with(interval, 1, MetricsMode::Dense, 0)
    }

    fn collector_with(interval: Ns, stride: u32, mode: MetricsMode, seed: u64) -> ObsCollector {
        let counts = reference::class_counts(&channels_unobserved());
        ObsCollector::new(interval, stride, false, mode, seed, Vec::new(), counts)
    }

    /// One channel per swept class, 10 µs busy, 512 B sent and 512 B
    /// queued on VC 0 —
    /// state built behind the collector's back.
    fn channels_unobserved() -> Vec<ChannelState> {
        let mut out = Vec::new();
        for class in [
            ChannelClass::TerminalUp,
            ChannelClass::LocalRow,
            ChannelClass::Global,
        ] {
            let mut ch = ChannelState::new(class, Bandwidth::from_gib_per_sec(1), Ns(0));
            ch.busy_time = Ns(10_000);
            ch.traffic = 512;
            ch.total_occupancy = 512;
            ch.vcs[0].occupancy = 512;
            out.push(ch);
        }
        out
    }

    /// [`channels_unobserved`], with the engine's hooks replayed into `c`
    /// as the event loop would have called them.
    fn channels(c: &mut ObsCollector) -> Vec<ChannelState> {
        let mut out = channels_unobserved();
        for (i, ch) in out.iter_mut().enumerate() {
            c.note_busy(ch.class, ch.busy_time);
            c.activate(ChannelId(i as u32), ch);
        }
        out
    }

    #[test]
    fn sweep_produces_window_deltas() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(50_000));
        assert!(!c.sample_due(Ns(49_999)));
        assert!(c.sample_due(Ns(50_000)));

        let mut chans = channels(&mut c);
        c.sample(Ns(50_000), &mut chans, &params, None);
        let report = c.report(0, None);
        let samples = report.series.samples();
        assert_eq!(samples.len(), 1);
        // One busy channel per swept class, 10µs busy over a 50µs window.
        let ci = class_index(ChannelClass::Global);
        assert!((samples[0].util[ci] - 0.2).abs() < 1e-9);
        assert_eq!(samples[0].queued_bytes[ci], 512);
        // Every VC of every channel contributes one occupancy reading.
        assert_eq!(
            report.vc_occupancy.readings as usize,
            chans[0].vcs.len() * 3
        );

        // Second sweep with unchanged busy time: utilization drops to 0.
        c.sample(Ns(100_000), &mut chans, &params, None);
        let report = c.report(0, None);
        assert_eq!(report.series.samples()[1].util[ci], 0.0);
    }

    #[test]
    fn drained_channels_leave_the_active_list() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        assert_eq!(c.active().len(), 3);
        // Re-activating a listed channel does not list it twice.
        c.activate(ChannelId(1), &mut chans[1]);
        assert_eq!(c.active().len(), 3);
        // Channel 1 drains; channel 2 drains but holds a full VC open.
        for i in [1, 2] {
            chans[i].total_occupancy = 0;
            chans[i].vcs[0].occupancy = 0;
        }
        chans[2].mark_full(3, Ns(1_500));
        c.sample(Ns(2_000), &mut chans, &params, None);
        assert_eq!(c.active(), &[ChannelId(0), ChannelId(2)]);
        assert!(!chans[1].in_active && chans[2].in_active);
        // Closing the interval lets the next window drop channel 2 too.
        let closed = chans[2].clear_full(3, Ns(2_500));
        c.note_saturation(chans[2].class, closed);
        c.sample(Ns(3_000), &mut chans, &params, None);
        assert_eq!(c.active(), &[ChannelId(0)]);
        let report = c.report(0, None);
        let gi = class_index(ChannelClass::Global);
        let stall: Vec<u64> = report
            .series
            .samples()
            .iter()
            .map(|s| s.stall_ns[gi])
            .collect();
        assert_eq!(stall, vec![0, 500, 500]);
        // Idle VCs still count: 3 channels x 12 VCs per window.
        assert_eq!(report.vc_occupancy.readings, 3 * 3 * MAX_ROUTE_LEN as u64);
    }

    #[test]
    fn zero_width_window_is_skipped() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        c.sample(Ns(1_000), &mut chans, &params, None);
        c.sample(Ns(1_000), &mut chans, &params, None);
        assert_eq!(c.report(0, None).series.samples().len(), 1);
    }

    #[test]
    fn time_jump_emits_aligned_catchup_windows() {
        // A jump over five boundaries yields five uniformly spaced
        // windows, not one oversized window at the jump's end.
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        chans[2].mark_full(0, Ns(500)); // global channel saturates mid-gap
        c.activate(ChannelId(2), &mut chans[2]);
        c.sample(Ns(5_200), &mut chans, &params, None);
        let report = c.report(0, None);
        let samples = report.series.samples();
        assert_eq!(samples.len(), 5, "one window per crossed boundary");
        for (i, s) in samples.iter().enumerate() {
            assert_eq!(s.at, Ns(1_000 * (i as u64 + 1)), "windows off the grid");
        }
        // The open saturation interval interpolates across the catch-up
        // windows: 500 ns in the first (opened at 500), then full
        // 1000 ns windows — not everything lumped into the last.
        let ci = class_index(ChannelClass::Global);
        assert_eq!(samples[0].stall_ns[ci], 500);
        assert!(samples[1..].iter().all(|s| s.stall_ns[ci] == 1_000));
        // The 200 ns remainder stays open for the next window.
        assert!(!c.sample_due(Ns(5_900)));
        assert!(c.sample_due(Ns(6_000)));
    }

    #[test]
    fn close_emits_partial_tail_window_once() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        c.close(Ns(2_500), &mut chans, &params, None);
        let report = c.report(0, None);
        let at: Vec<Ns> = report.series.samples().iter().map(|s| s.at).collect();
        assert_eq!(at, vec![Ns(1_000), Ns(2_000), Ns(2_500)]);
        // Closing again at the same instant adds nothing.
        c.close(Ns(2_500), &mut chans, &params, None);
        assert_eq!(c.report(0, None).series.samples().len(), 3);
    }

    #[test]
    fn utilization_clamped_even_with_txstart_credit() {
        // busy_time credited at tx start can exceed the window.
        let params = NetworkParams::default();
        let mut c = collector(Ns(100));
        let mut chans = channels(&mut c);
        chans[0].busy_time = Ns(1_000_000);
        c.note_busy(chans[0].class, Ns(1_000_000 - 10_000));
        c.sample(Ns(100), &mut chans, &params, None);
        let s = c.report(0, None).series.samples()[0];
        assert!(s.util.iter().all(|&u| u <= 1.0), "unclamped: {:?}", s.util);
    }

    #[test]
    fn route_deltas_per_window() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        let mut route = RouteStats::new();
        route.record(false, 10);
        route.record(true, 20);
        c.sample(Ns(1_000), &mut chans, &params, Some(&route));
        route.record(true, 30);
        c.sample(Ns(2_000), &mut chans, &params, Some(&route));
        let report = c.report(7, Some(&route));
        let s = report.series.samples();
        assert_eq!((s[0].minimal_taken, s[0].nonminimal_taken), (1, 1));
        assert_eq!((s[1].minimal_taken, s[1].nonminimal_taken), (0, 1));
        // The report carries the cumulative ledger and the queue peak.
        assert_eq!(report.route.total(), 3);
        assert_eq!(report.profile.queue_high_water, 7);
    }

    #[test]
    fn stride_times_first_then_every_nth_per_kind() {
        let mut c = collector_with(Ns(1_000), 4, MetricsMode::Dense, 0);
        let timed: Vec<bool> = (0..9).map(|_| c.timing_due(EventKind::Arrive)).collect();
        assert_eq!(
            timed,
            [true, false, false, false, true, false, false, false, true]
        );
        // Kinds count down independently.
        assert!(c.timing_due(EventKind::Inject));
        assert!(!c.timing_due(EventKind::Inject));
    }

    #[test]
    fn streaming_collector_builds_digest_and_bounded_series() {
        let params = NetworkParams::default();
        let mode = MetricsMode::Streaming { reservoir_k: 8 };
        let mut c = collector_with(Ns(1_000), 1, mode, 42);
        let mut chans = channels(&mut c);
        chans[2].traffic = 5_000_000;
        chans[2].saturated = Ns(2_000_000);
        c.note_saturation(chans[2].class, Ns(2_000_000));
        c.close(Ns(10_500), &mut chans, &params, None);
        let report = c.report(0, None);
        let digest = report.link_digest.as_ref().expect("streaming digest");
        let gi = class_index(ChannelClass::Global);
        assert_eq!(digest.channels(gi), 1);
        assert_eq!(digest.class(gi).traffic_bytes.sum(), 5_000_000.0);
        assert_eq!(digest.class(gi).saturated_ms.max(), Some(2.0));
        // Closing again must not double-count the cumulative counters.
        c.close(Ns(10_500), &mut chans, &params, None);
        let again = c.report(0, None);
        assert_eq!(
            again.link_digest.as_ref().unwrap().channels(gi),
            1,
            "repeated close double-counts"
        );
        assert!(report.series.samples().len() <= ObsCollector::STREAM_SERIES_CAP);
    }

    #[test]
    fn dense_collector_has_no_digest() {
        let params = NetworkParams::default();
        let mut c = collector(Ns(1_000));
        let mut chans = channels(&mut c);
        c.close(Ns(2_000), &mut chans, &params, None);
        assert!(c.report(0, None).link_digest.is_none());
    }

    #[test]
    fn sampled_profile_counts_all_events_but_times_a_subset() {
        let mut c = collector_with(Ns(1_000), 8, MetricsMode::Dense, 0);
        for _ in 0..100 {
            let started = c.timing_due(EventKind::TxDone).then(|| c.clock_now());
            c.note_event(EventKind::TxDone, started, 3);
        }
        let report = c.report(0, None);
        assert_eq!(report.profile.counts[EventKind::TxDone.index()], 100);
        assert_eq!(report.profile.timed[EventKind::TxDone.index()], 13);
    }

    // ----- active list vs the exhaustive reference, end to end ---------

    use crate::net::{Network, NetworkEvent};
    use crate::routing::Routing;
    use crate::shard::ShardedNetwork;
    use dfly_engine::proptest::{check_with_shrink, shrink, Config};
    use dfly_engine::Xoshiro256;
    use dfly_topology::{NodeId, Topology, TopologyConfig};
    use std::sync::Arc;

    /// The stress fuzzer's machine shapes: the standard test machine,
    /// the smallest dragonfly, single-row groups, an odd node count and
    /// a canonic (p,a,h,g) machine.
    fn fuzz_topologies() -> Vec<TopologyConfig> {
        let base = TopologyConfig::small_test();
        let shape = |groups, rows, cols, nodes_per_router, chassis_per_cabinet| TopologyConfig {
            groups,
            rows,
            cols,
            nodes_per_router,
            global_links_per_router: 1,
            chassis_per_cabinet,
            ..base.clone()
        };
        vec![
            base.clone(),
            shape(2, 2, 2, 2, 2),
            shape(3, 1, 4, 2, 1),
            shape(5, 2, 2, 3, 2),
            TopologyConfig::canonical(2, 4, 2, 5),
        ]
    }

    /// One differential scenario: machine x routing x engine x metrics
    /// mode x bursty traffic with quiet gaps.
    #[derive(Debug, Clone)]
    struct DiffCase {
        topo_idx: usize,
        routing: Routing,
        /// 0 = serial event loop, else group-sharded on this many workers.
        shards: usize,
        /// `None` = dense metrics, else streaming with this reservoir K.
        streaming_k: Option<u32>,
        /// Serial runs only: sample every 1 µs instead of 50 µs.
        fine_interval: bool,
        /// Bursts of messages, each `gaps_us[i]` after the previous one.
        /// Gaps longer than the 50 µs window force catch-up windows.
        gaps_us: Vec<u64>,
        msgs_per_burst: u32,
        max_bytes: u64,
        seed: u64,
    }

    fn gen_case(rng: &mut Xoshiro256) -> DiffCase {
        let bursts = 1 + rng.index(6);
        DiffCase {
            topo_idx: rng.index(fuzz_topologies().len()),
            routing: Routing::ALL[rng.index(Routing::ALL.len())],
            shards: [0, 0, 1, 4][rng.index(4)],
            streaming_k: rng.chance(0.5).then(|| 1 << (2 + rng.index(6))),
            fine_interval: rng.chance(0.5),
            gaps_us: (0..bursts).map(|_| rng.next_below(400)).collect(),
            msgs_per_burst: 1 + rng.next_below(40) as u32,
            max_bytes: rng.range_inclusive(1, 64 * 1024),
            seed: rng.next_u64(),
        }
    }

    fn shrink_case(c: &DiffCase) -> Vec<DiffCase> {
        let mut out = Vec::new();
        for g in shrink::vec(&c.gaps_us, |&v| shrink::u64_toward(0, v)) {
            if !g.is_empty() {
                out.push(DiffCase {
                    gaps_us: g,
                    ..c.clone()
                });
            }
        }
        for m in shrink::u64_toward(1, c.msgs_per_burst as u64) {
            out.push(DiffCase {
                msgs_per_burst: m as u32,
                ..c.clone()
            });
        }
        if c.shards > 1 {
            out.push(DiffCase {
                shards: 1,
                ..c.clone()
            });
        }
        out
    }

    /// Run one scenario with telemetry and audits on. Every window checks
    /// itself against the exhaustive sweep inside the collector (a
    /// mismatch panics, in a worker thread too), and the report checks
    /// the series and digest; here we also demand a clean audit, which
    /// includes the active-list invariant.
    fn run_case(c: &DiffCase) -> Result<ObsReport, String> {
        let topo = Arc::new(Topology::build(fuzz_topologies()[c.topo_idx].clone()));
        let nodes = topo.config().total_nodes() as u64;
        let mut params = NetworkParams {
            obs: true,
            audit: true,
            ..NetworkParams::default()
        };
        if let Some(k) = c.streaming_k {
            params.metrics = MetricsMode::Streaming { reservoir_k: k };
        }
        let mut rng = Xoshiro256::seed_from(c.seed);
        let mut sends = Vec::new();
        let mut at = Ns::ZERO;
        for &gap in &c.gaps_us {
            at += Ns::from_us(gap);
            for _ in 0..c.msgs_per_burst {
                let src = NodeId(rng.next_below(nodes) as u32);
                let dst = NodeId(rng.next_below(nodes) as u32);
                sends.push((at, src, dst, rng.range_inclusive(1, c.max_bytes)));
            }
        }
        let (report, audit) = if c.shards == 0 {
            let mut n = Network::new(topo, params, c.routing, c.seed);
            if c.fine_interval {
                n.set_obs_interval(Ns(1_000));
            }
            for (tag, &(at, s, d, b)) in sends.iter().enumerate() {
                n.send(at, s, d, b, tag as u64);
            }
            n.run_to_idle();
            (n.obs_report(), n.audit_report())
        } else {
            let mut n = ShardedNetwork::new(topo, params, c.routing, c.seed, c.shards);
            for (tag, &(at, s, d, b)) in sends.iter().enumerate() {
                n.send(at, s, d, b, tag as u64);
            }
            let mut delivered = 0;
            while let Some(ev) = n.poll() {
                if let NetworkEvent::Delivery(_) = ev {
                    delivered += 1;
                }
            }
            if delivered != sends.len() {
                return Err(format!("{delivered} of {} delivered", sends.len()));
            }
            let mut parts = n.finish();
            (parts.obs_report(), parts.audit_report())
        };
        let report = report.ok_or("telemetry report missing")?;
        let audit = audit.ok_or("audit report missing")?;
        if !audit.is_clean() {
            return Err(format!("audit: {audit}"));
        }
        if report.series.samples().is_empty() || report.vc_occupancy.readings == 0 {
            return Err("telemetry recorded nothing".into());
        }
        Ok(report)
    }

    #[test]
    fn active_list_windows_equal_exhaustive_sweep_across_fuzz_space() {
        check_with_shrink(
            "active_list_windows_equal_exhaustive_sweep",
            &Config::default(),
            gen_case,
            shrink_case,
            |c| run_case(c).map(drop),
        );
        // Pinned sparse cases: three bursts 300 µs apart on the default
        // 50 µs grid leave stretches without events, which the collector
        // fills with catch-up windows (>= 12 windows in ~600 µs).
        for shards in [0, 4] {
            let c = DiffCase {
                topo_idx: 0,
                routing: Routing::Adaptive,
                shards,
                streaming_k: Some(16),
                fine_interval: false,
                gaps_us: vec![0, 300, 300],
                msgs_per_burst: 8,
                max_bytes: 8 * 1024,
                seed: 5,
            };
            let report = run_case(&c).unwrap_or_else(|e| panic!("{c:?}: {e}"));
            let windows = report.series.samples().len();
            assert!(windows >= 12, "{shards} shards: only {windows} windows");
        }
    }

    #[test]
    fn window_visits_scale_with_active_channels_not_machine_size() {
        // 65-group canonic machine (2,080 nodes, ~12k channels); a job
        // on the first two groups keeps almost every channel idle.
        let topo = Arc::new(Topology::build(TopologyConfig::canonical(4, 8, 8, 65)));
        let channels = topo.channel_count();
        let mut n = Network::new(topo, NetworkParams::default(), Routing::Adaptive, 7);
        n.set_obs_interval(Ns(1_000));
        let ranks = 64u32;
        for r in 0..ranks {
            for k in 1..4 {
                n.send(
                    Ns::ZERO,
                    NodeId(r),
                    NodeId((r + 11 * k) % ranks),
                    16 * 1024,
                    0,
                );
            }
        }
        n.run_to_idle();
        n.obs_report().expect("obs on");
        let touched = n
            .metrics()
            .channels()
            .filter(|c| c.traffic_bytes > 0)
            .count();
        let r = &n.obs_collector().expect("obs on").reference;
        assert!(r.windows >= 10, "only {} windows", r.windows);
        assert!(r.max_visited > 0);
        assert!(
            r.max_visited <= touched,
            "a window visited {} channels; only {touched} carried traffic",
            r.max_visited
        );
        assert!(
            r.max_visited * 20 < channels,
            "a window visited {} of {channels} channels",
            r.max_visited
        );
    }
}
