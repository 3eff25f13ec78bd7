//! Synthetic NYSE trading day (substitute for §5.1's proprietary data).
//!
//! The paper analyzes NYSE trades of 1999-09-24 to justify its workload
//! distributions: normalized prices are approximately normal around the
//! opening price (Figure 4a), per-stock trade counts follow a Zipf-like
//! popularity curve (Figure 4b), and trade amounts have a Pareto tail
//! (Figure 4c); the three most-traded stocks show the same shapes
//! individually (Figure 5). We cannot redistribute that feed, so this
//! module *generates* a trading day from exactly those distribution
//! families (see DESIGN.md, substitutions): re-running the paper's
//! analysis on the synthetic day reproduces the figures' shapes.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rand_distr::{Distribution, Normal, Pareto};

use pubsub_geom::Point;

use crate::{WorkloadError, ZipfLike};

/// One executed trade.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Trade {
    /// Stock index in `0..stocks`.
    pub stock: usize,
    /// Price normalized by the stock's opening price (≈ 1.0).
    pub price: f64,
    /// Dollar amount of the trade.
    pub amount: f64,
}

/// Configuration of the synthetic trading day. Passive data: public fields.
#[derive(Clone, Debug, PartialEq)]
pub struct NyseConfig {
    /// Number of distinct stocks.
    pub stocks: usize,
    /// Total number of trades in the day.
    pub trades: usize,
    /// Zipf exponent of stock popularity (trades per stock).
    pub popularity_theta: f64,
    /// Mean intraday standard deviation of the normalized price.
    pub price_sd: f64,
    /// Pareto scale (minimum) of trade amounts, in dollars.
    pub amount_scale: f64,
    /// Pareto shape `α` of trade amounts.
    pub amount_shape: f64,
}

impl NyseConfig {
    /// A day sized like the paper's: a few thousand listed stocks, a few
    /// hundred thousand trades.
    pub fn riabov_day() -> Self {
        NyseConfig {
            stocks: 3000,
            trades: 300_000,
            popularity_theta: 1.0,
            price_sd: 0.04,
            amount_scale: 1_000.0,
            amount_shape: 1.2,
        }
    }

    /// A small day for fast tests.
    pub fn tiny() -> Self {
        NyseConfig {
            stocks: 50,
            trades: 5_000,
            ..NyseConfig::riabov_day()
        }
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        let checks = [
            ("stocks", self.stocks >= 1),
            ("trades", self.trades >= 1),
            (
                "popularity_theta",
                self.popularity_theta >= 0.0 && self.popularity_theta.is_finite(),
            ),
            ("price_sd", self.price_sd > 0.0 && self.price_sd.is_finite()),
            (
                "amount_scale",
                self.amount_scale > 0.0 && self.amount_scale.is_finite(),
            ),
            (
                "amount_shape",
                self.amount_shape > 0.0 && self.amount_shape.is_finite(),
            ),
        ];
        for (parameter, ok) in checks {
            if !ok {
                return Err(WorkloadError::InvalidConfig {
                    parameter,
                    constraint: "positive and finite",
                });
            }
        }
        Ok(())
    }

    /// Generates the trading day deterministically from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for out-of-range
    /// parameters.
    pub fn generate(&self, seed: u64) -> Result<TradingDay, WorkloadError> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let popularity = ZipfLike::new(self.stocks, self.popularity_theta)?;
        // Per-stock price behaviour: mean near the open (normalized 1.0),
        // sd varying across stocks so Figure 5's per-stock bells differ.
        let stock_params: Vec<(f64, f64)> = (0..self.stocks)
            .map(|_| {
                let mean = 1.0 + rng.gen_range(-0.02..0.02);
                let sd = self.price_sd * rng.gen_range(0.5..1.5);
                (mean, sd)
            })
            .collect();
        let amount_dist =
            Pareto::new(self.amount_scale, self.amount_shape).expect("validated parameters");
        let mut trades = Vec::with_capacity(self.trades);
        for _ in 0..self.trades {
            let stock = popularity.sample(&mut rng);
            let (mean, sd) = stock_params[stock];
            let price = Normal::new(mean, sd).expect("validated").sample(&mut rng);
            let amount: f64 = amount_dist.sample(&mut rng);
            trades.push(Trade {
                stock,
                price,
                amount,
            });
        }
        Ok(TradingDay {
            stocks: self.stocks,
            trades,
        })
    }
}

/// A generated trading day.
#[derive(Clone, Debug, PartialEq)]
pub struct TradingDay {
    stocks: usize,
    trades: Vec<Trade>,
}

impl TradingDay {
    /// All trades in generation order.
    pub fn trades(&self) -> &[Trade] {
        &self.trades
    }

    /// Number of distinct stocks configured.
    pub fn stock_count(&self) -> usize {
        self.stocks
    }

    /// Trades per stock, indexed by stock id.
    pub fn trades_per_stock(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.stocks];
        for t in &self.trades {
            counts[t.stock] += 1;
        }
        counts
    }

    /// The `k` most-traded stocks, most popular first.
    pub fn top_stocks(&self, k: usize) -> Vec<usize> {
        let counts = self.trades_per_stock();
        let mut order: Vec<usize> = (0..self.stocks).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(counts[s]));
        order.truncate(k);
        order
    }

    /// Normalized prices of every trade.
    pub fn all_prices(&self) -> impl Iterator<Item = f64> + '_ {
        self.trades.iter().map(|t| t.price)
    }

    /// Dollar amounts of every trade.
    pub fn all_amounts(&self) -> impl Iterator<Item = f64> + '_ {
        self.trades.iter().map(|t| t.amount)
    }

    /// Normalized prices of one stock's trades.
    pub fn prices_of(&self, stock: usize) -> Vec<f64> {
        self.trades
            .iter()
            .filter(|t| t.stock == stock)
            .map(|t| t.price)
            .collect()
    }

    /// Dollar amounts of one stock's trades.
    pub fn amounts_of(&self, stock: usize) -> Vec<f64> {
        self.trades
            .iter()
            .filter(|t| t.stock == stock)
            .map(|t| t.amount)
            .collect()
    }

    /// Replays the trading day as a publication stream in the
    /// `{bst, name, quote, volume}` event space (see [`ReplayConfig`]) —
    /// the §5.1 data driving the simulation directly instead of merely
    /// justifying its parametric distributions.
    pub fn replay_events(&self, config: &ReplayConfig, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Popularity rank per stock (rank 0 = most traded), so the name
        // mapping matches the Zipf-by-popularity structure subscriptions
        // assume.
        let counts = self.trades_per_stock();
        let mut by_popularity: Vec<usize> = (0..self.stocks).collect();
        by_popularity.sort_by_key(|&s| std::cmp::Reverse(counts[s]));
        let mut rank_of = vec![0usize; self.stocks];
        for (rank, &s) in by_popularity.iter().enumerate() {
            rank_of[s] = rank;
        }
        let (name_lo, name_hi) = config.name_range;
        self.trades
            .iter()
            .map(|t| {
                let u: f64 = rng.gen();
                let bst = if u < config.bst_probs[0] {
                    0.0
                } else if u < config.bst_probs[0] + config.bst_probs[1] {
                    1.0
                } else {
                    2.0
                };
                let name = name_lo
                    + (rank_of[t.stock] as f64 / self.stocks.max(1) as f64) * (name_hi - name_lo);
                let quote = config.quote_center + (t.price - 1.0) * config.quote_gain;
                let volume = t.amount.max(1.0).log10() * config.volume_log_gain;
                Point::new(vec![bst, name, quote, volume]).expect("finite mapping")
            })
            .collect()
    }
}

/// How [`TradingDay::replay_events`] maps trades into the event space.
/// Passive data: public fields.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplayConfig {
    /// Probabilities of labeling a trade B, S or T (the feed itself has
    /// no side information; the paper's workload uses 0.4/0.4/0.2).
    pub bst_probs: [f64; 3],
    /// Popularity rank 0..1 is mapped linearly into this `name` range
    /// (the subscription generator centers block interests at 3/10/17).
    pub name_range: (f64, f64),
    /// `quote = quote_center + (normalized_price − 1) · quote_gain`.
    pub quote_center: f64,
    /// Gain applied to the normalized price deviation.
    pub quote_gain: f64,
    /// `volume = log10(amount) · volume_log_gain`.
    pub volume_log_gain: f64,
}

impl Default for ReplayConfig {
    /// Maps into the same ranges the parametric §5 workload occupies:
    /// names in (0, 20], quotes ~ N(9, 2)-ish, volumes around 9.
    fn default() -> Self {
        ReplayConfig {
            bst_probs: [0.4, 0.4, 0.2],
            name_range: (0.0, 20.0),
            quote_center: 9.0,
            quote_gain: 50.0,
            volume_log_gain: 2.75,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn determinism_and_size() {
        let cfg = NyseConfig::tiny();
        let a = cfg.generate(1).unwrap();
        let b = cfg.generate(1).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.trades().len(), 5_000);
        assert_eq!(a.stock_count(), 50);
    }

    #[test]
    fn prices_look_normal_around_one() {
        let day = NyseConfig::tiny().generate(2).unwrap();
        let prices: Vec<f64> = day.all_prices().collect();
        let (mean, sd) = stats::fit_normal(&prices).unwrap();
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!(sd > 0.01 && sd < 0.1, "sd {sd}");
    }

    #[test]
    fn popularity_is_zipf_like() {
        let day = NyseConfig::tiny().generate(3).unwrap();
        let rf = stats::rank_frequency(&day.trades_per_stock());
        let points: Vec<(f64, f64)> = rf
            .iter()
            .take(20)
            .map(|&(r, c)| (r as f64, c as f64))
            .collect();
        let slope = stats::fit_loglog_slope(&points).unwrap();
        assert!(
            (-1.4..=-0.6).contains(&slope),
            "zipf slope {slope} too far from -1"
        );
    }

    #[test]
    fn amounts_have_pareto_tail() {
        let day = NyseConfig::tiny().generate(4).unwrap();
        let amounts: Vec<f64> = day.all_amounts().collect();
        let alpha = stats::fit_pareto_alpha(&amounts).unwrap();
        assert!((alpha - 1.2).abs() < 0.2, "alpha {alpha}");
        assert!(amounts.iter().all(|&a| a >= 1000.0));
    }

    #[test]
    fn top_stocks_are_sorted_by_count() {
        let day = NyseConfig::tiny().generate(5).unwrap();
        let counts = day.trades_per_stock();
        let top = day.top_stocks(3);
        assert_eq!(top.len(), 3);
        assert!(counts[top[0]] >= counts[top[1]]);
        assert!(counts[top[1]] >= counts[top[2]]);
        // Per-stock accessors agree with counts.
        assert_eq!(day.prices_of(top[0]).len() as u64, counts[top[0]]);
        assert_eq!(day.amounts_of(top[0]).len() as u64, counts[top[0]]);
    }

    #[test]
    fn replay_maps_into_the_stock_space() {
        let day = NyseConfig::tiny().generate(6).unwrap();
        let events = day.replay_events(&ReplayConfig::default(), 7);
        assert_eq!(events.len(), day.trades().len());
        let space = crate::stock_space();
        let mut inside = 0usize;
        let mut bst_counts = [0usize; 3];
        for e in &events {
            assert_eq!(e.dims(), 4);
            if space.contains(e) {
                inside += 1;
            }
            bst_counts[e.coord(0) as usize] += 1;
        }
        // Essentially all replayed events land in the clamping space.
        assert!(
            inside as f64 / events.len() as f64 > 0.95,
            "only {inside}/{} inside",
            events.len()
        );
        // The bst labeling follows the configured probabilities.
        let f = |c: usize| c as f64 / events.len() as f64;
        assert!((f(bst_counts[0]) - 0.4).abs() < 0.05);
        assert!((f(bst_counts[2]) - 0.2).abs() < 0.05);
        // Determinism.
        assert_eq!(events, day.replay_events(&ReplayConfig::default(), 7));
    }

    #[test]
    fn replay_quote_tracks_price_and_name_tracks_popularity() {
        let day = NyseConfig::tiny().generate(8).unwrap();
        let cfg = ReplayConfig::default();
        let events = day.replay_events(&cfg, 9);
        // The most popular stock maps to the lowest names.
        let top = day.top_stocks(1)[0];
        let mut top_names = Vec::new();
        for (t, e) in day.trades().iter().zip(&events) {
            if t.stock == top {
                top_names.push(e.coord(1));
            }
            // quote reconstruction: e[2] = 9 + (price-1)*gain.
            let price_back = (e.coord(2) - cfg.quote_center) / cfg.quote_gain + 1.0;
            assert!((price_back - t.price).abs() < 1e-9);
        }
        assert!(top_names.iter().all(|&n| n < 1.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = NyseConfig::tiny();
        cfg.stocks = 0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = NyseConfig::tiny();
        cfg.amount_shape = 0.0;
        assert!(cfg.generate(0).is_err());
        let mut cfg = NyseConfig::tiny();
        cfg.price_sd = -1.0;
        assert!(cfg.generate(0).is_err());
    }
}
