//! Web page loading (paper §5.4, "Web browsing").
//!
//! The paper's volunteer loads the 2.1 MB eBay homepage, cached on a
//! local server to exclude Internet latency; the metric is the time from
//! navigation to the last byte. That time is all the model keeps: the
//! page is its weight. A browser's HTML-first, six-connection fetch
//! splits the same delivered bytes among more objects, and while every
//! byte that arrives goes to some in-flight object the last one lands
//! when the page's weight has arrived, whatever the split.

/// The page's weight, bytes: the paper's eBay homepage.
pub const PAGE_BYTES: u64 = 2_100_000;
