//! Adaptive task-window sizing.
//!
//! The paper reports (Figure 9) that window sizes are "selected automatically
//! by Diffuse through a process that increases the window size when all tasks
//! in the current window size were fused". [`AdaptiveWindow`] implements that
//! policy: the window grows whenever an entire window fuses into one task and
//! stays put otherwise, up to a configurable maximum.

/// Adaptive window-size controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveWindow {
    current: usize,
    max: usize,
}

impl AdaptiveWindow {
    /// Creates a controller starting at `initial` tasks and growing up to
    /// `max` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is zero or greater than `max`.
    pub fn new(initial: usize, max: usize) -> Self {
        assert!(initial > 0, "window size must be positive");
        assert!(initial <= max, "initial window may not exceed the maximum");
        AdaptiveWindow {
            current: initial,
            max,
        }
    }

    /// The current window size: how many tasks to buffer before running the
    /// fusion analysis.
    pub fn size(&self) -> usize {
        self.current
    }

    /// Records the outcome of analyzing a full window: `window_len` tasks were
    /// buffered and the fusible prefix had `fused_len` tasks. Grows the window
    /// when everything fused.
    pub fn record(&mut self, window_len: usize, fused_len: usize) {
        if window_len == 0 {
            return;
        }
        if fused_len >= window_len && window_len >= self.current {
            self.current = (self.current * 2).min(self.max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_when_everything_fuses() {
        let mut w = AdaptiveWindow::new(5, 70);
        assert_eq!(w.size(), 5);
        w.record(5, 5);
        assert_eq!(w.size(), 10);
        w.record(10, 10);
        assert_eq!(w.size(), 20);
    }

    #[test]
    fn stops_at_the_maximum() {
        let mut w = AdaptiveWindow::new(32, 40);
        w.record(32, 32);
        assert_eq!(w.size(), 40);
        w.record(40, 40);
        assert_eq!(w.size(), 40);
    }

    #[test]
    fn does_not_grow_on_partial_fusion() {
        let mut w = AdaptiveWindow::new(5, 70);
        w.record(5, 3);
        assert_eq!(w.size(), 5);
        w.record(0, 0);
        assert_eq!(w.size(), 5);
    }

    #[test]
    fn undersized_windows_do_not_grow() {
        // A flush of fewer tasks than the window size (e.g. at the end of a
        // program) should not trigger growth even if everything fused.
        let mut w = AdaptiveWindow::new(8, 64);
        w.record(2, 2);
        assert_eq!(w.size(), 8);
    }

    #[test]
    #[should_panic]
    fn zero_initial_panics() {
        let _ = AdaptiveWindow::new(0, 10);
    }

    #[test]
    #[should_panic]
    fn initial_greater_than_max_panics() {
        let _ = AdaptiveWindow::new(20, 10);
    }
}
