//! Medians, percentiles and the slice bookkeeping every timing metric
//! goes through.

/// Slices each measured segment is cut into; every timing metric is
/// the [`midmean`] over all slices of the per-slice rate or percentile,
/// which is what makes it repeat on a shared host: there, half-second
/// slices of `paper_batch` ran from 41k to 480k events/s within one
/// minute around a steady 270k.
pub const SLICES_PER_SEGMENT: usize = 4;

/// The interquartile mean: the mean of the middle half of `values`.
/// Like the median it ignores a quarter of outliers on each side; unlike
/// the median it moves smoothly when the slices fall into two clusters
/// (a server started "fast" or "slow": `serve_paced` slices sit near
/// either 150 or 280 us), where the median jumps from one cluster to the
/// other as the mix crosses one half.
pub fn midmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// The median of `values` (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The distance between the first and third quartile of `values` as a
/// share of their median — the spread the driver holds against a
/// metric's bound — with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives; 0 below two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let at = (k * (v.len() + 1)) as f64 / 4.0 - 1.0;
        let below = (at.floor().max(0.0) as usize).min(v.len() - 2);
        v[below] + (at - below as f64) * (v[below + 1] - v[below])
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// The `q`-quantile of an ascending-sorted sample by nearest rank; 0
/// when empty.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

#[derive(Clone, Debug, Default)]
struct Slice {
    /// Latencies, ns.
    samples: Vec<u64>,
    /// Events completed.
    work: u64,
    secs: f64,
}

/// Samples bucketed by the slice their timestamp falls in, over the
/// measured windows of all of a run's segments.
#[derive(Debug, Default)]
pub struct Sliced {
    slices: Vec<Slice>,
    /// Start of the window being filled, and its slice length.
    start_ns: u64,
    slice_ns: u64,
    /// Index of the window's first slice.
    first: usize,
}

impl Sliced {
    /// Opens the next window, `[start_ns, start_ns + window_ns)`, as
    /// [`SLICES_PER_SEGMENT`] new slices; [`Sliced::add`] files into it.
    pub fn open(&mut self, start_ns: u64, window_ns: u64) {
        self.start_ns = start_ns;
        self.slice_ns = (window_ns / SLICES_PER_SEGMENT as u64).max(1);
        self.first = self.slices.len();
        let secs = self.slice_ns as f64 / 1e9;
        self.slices.resize(
            self.first + SLICES_PER_SEGMENT,
            Slice {
                secs,
                ..Slice::default()
            },
        );
    }

    /// Files one sample (`value` ns, standing for `work` events) under
    /// the slice of the open window holding `at_ns`; instants outside
    /// the window (warm-up, drain) are dropped.
    pub fn add(&mut self, at_ns: u64, value: u64, work: u64) {
        if at_ns < self.start_ns {
            return;
        }
        let slice = self.first + ((at_ns - self.start_ns) / self.slice_ns) as usize;
        if let Some(s) = self.slices.get_mut(slice) {
            s.samples.push(value);
            s.work += work;
        }
    }

    /// Events completed inside the windows.
    pub fn work(&self) -> u64 {
        self.slices.iter().map(|s| s.work).sum()
    }

    /// Samples kept, over all slices.
    pub fn count(&self) -> usize {
        self.slices.iter().map(|s| s.samples.len()).sum()
    }

    /// Midmean over slices of the per-slice events per second.
    pub fn rate_per_s(&self) -> f64 {
        let rates: Vec<f64> = self.slices.iter().map(|s| s.work as f64 / s.secs).collect();
        midmean(&rates)
    }

    /// Midmean over non-empty slices of the per-slice `q`-quantile.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter_mut()
            .filter(|s| !s.samples.is_empty())
            .map(|s| {
                s.samples.sort_unstable();
                quantile(&s.samples, q)
            })
            .collect();
        midmean(&per_slice)
    }

    /// The `q`-quantile over all windows, unsliced.
    pub fn whole_quantile_ns(&self, q: f64) -> f64 {
        let mut all: Vec<u64> = self
            .slices
            .iter()
            .flat_map(|s| s.samples.iter().copied())
            .collect();
        all.sort_unstable();
        quantile(&all, q)
    }
}
