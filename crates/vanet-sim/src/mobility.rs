//! Route builders for the evaluation drives.

use crate::mph_to_mps;
use crowdwifi_geo::{Point, Rect, Trajectory};

/// The campus loop of Fig. 5(a): a rectangle-ish circuit around the
/// 300 × 180 m UCI map at 25 mph, repeated three times so the collector
/// can gather the paper's 180 RSS samples at 1 Hz.
pub fn uci_loop_route() -> Trajectory {
    uci_loop_route_with(3, 25.0)
}

/// The campus loop with explicit lap count and speed (mph).
///
/// # Panics
///
/// Panics if `laps == 0` or the speed is not positive.
pub fn uci_loop_route_with(laps: usize, speed_mph: f64) -> Trajectory {
    assert!(laps > 0, "need at least one lap");
    // A winding coverage circuit (like the paper's Fig. 5(a) path): four
    // west–east sweeps with edge connectors, so every campus AP is
    // passed on *both* sides. Two-sided passes matter: an AP seen only
    // from one straight road segment leaves a mirror ambiguity about
    // which side of the road it is on.
    let circuit = [
        Point::new(20.0, 20.0),
        Point::new(280.0, 20.0),
        Point::new(280.0, 65.0),
        Point::new(20.0, 65.0),
        Point::new(20.0, 115.0),
        Point::new(280.0, 115.0),
        Point::new(280.0, 160.0),
        Point::new(20.0, 160.0),
    ];
    let mut path: Vec<Point> = Vec::new();
    for lap in 0..laps {
        if lap == 0 {
            path.extend_from_slice(&circuit);
        } else {
            // Close the loop back to the start, then repeat (skip the
            // duplicated first point).
            path.push(circuit[0]);
            path.extend_from_slice(&circuit[1..]);
        }
    }
    Trajectory::with_constant_speed(&path, mph_to_mps(speed_mph)).expect("static route is valid")
}

/// Straight drive-by passes across the testbed area (§6.2): `passes`
/// horizontal streets at evenly spaced heights, driven at `speed_mph`
/// (the experiment used 20, 35 and 45 mph).
///
/// # Panics
///
/// Panics if `passes == 0` or the speed is not positive.
pub fn testbed_passes(area: Rect, passes: usize, speed_mph: f64) -> Trajectory {
    assert!(passes > 0, "need at least one pass");
    assert!(speed_mph > 0.0, "speed must be positive");
    let mut path = Vec::new();
    let step = area.height() / (passes as f64 + 1.0);
    let mut leftward = false;
    for i in 1..=passes {
        let y = area.min().y + step * i as f64;
        let (xa, xb) = if leftward {
            (area.max().x, area.min().x)
        } else {
            (area.min().x, area.max().x)
        };
        path.push(Point::new(xa, y));
        path.push(Point::new(xb, y));
        leftward = !leftward;
    }
    Trajectory::with_constant_speed(&path, mph_to_mps(speed_mph)).expect("pass route is valid")
}

/// A snake drive through every east–west street of a Manhattan grid
/// (see [`crate::scenario::Scenario::manhattan`]): streets run along
/// block boundaries, so every block's AP is passed on two sides.
///
/// # Panics
///
/// Panics if `blocks == 0` or sizes/speeds are not positive.
pub fn manhattan_route(blocks: usize, block_size: f64, speed_mph: f64) -> Trajectory {
    assert!(blocks > 0, "need at least one block");
    assert!(block_size > 0.0, "block_size must be positive");
    assert!(speed_mph > 0.0, "speed must be positive");
    let extent = blocks as f64 * block_size;
    let inset = block_size * 0.05;
    let mut path = Vec::new();
    let mut leftward = false;
    // Drive every street y = k·block_size (clamped just inside the map).
    for k in 0..=blocks {
        let y = (k as f64 * block_size).clamp(inset, extent - inset);
        let (xa, xb) = if leftward {
            (extent - inset, inset)
        } else {
            (inset, extent - inset)
        };
        path.push(Point::new(xa, y));
        path.push(Point::new(xb, y));
        leftward = !leftward;
    }
    Trajectory::with_constant_speed(&path, mph_to_mps(speed_mph)).expect("snake route is valid")
}

/// A van round through the five VanLan building clusters at 25 mph
/// (§6.3), optionally offset sideways so two vans don't share a lane.
pub fn vanlan_round(lane_offset: f64) -> Trajectory {
    let stops = [
        Point::new(60.0 + lane_offset, 60.0),
        Point::new(160.0 + lane_offset, 180.0),
        Point::new(340.0 + lane_offset, 400.0),
        Point::new(500.0 + lane_offset, 200.0),
        Point::new(680.0 + lane_offset, 360.0),
        Point::new(760.0 + lane_offset, 220.0),
        Point::new(400.0 + lane_offset, 80.0),
        Point::new(60.0 + lane_offset, 60.0),
    ];
    Trajectory::with_constant_speed(&stops, mph_to_mps(25.0)).expect("van route is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uci_loop_repeats_laps() {
        let one = uci_loop_route_with(1, 25.0);
        let three = uci_loop_route_with(3, 25.0);
        assert!(three.length() > 2.9 * one.length());
        // 180 one-second samples must fit inside the default route.
        assert!(uci_loop_route().duration() > 180.0);
    }

    #[test]
    fn uci_loop_stays_on_map() {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 180.0)).unwrap();
        for w in uci_loop_route().waypoints() {
            assert!(area.contains(w.position), "waypoint {w:?} off map");
        }
    }

    #[test]
    fn faster_speed_means_shorter_duration() {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        let slow = testbed_passes(area, 3, 20.0);
        let fast = testbed_passes(area, 3, 45.0);
        assert!((slow.length() - fast.length()).abs() < 1e-9);
        assert!(fast.duration() < slow.duration());
    }

    #[test]
    fn manhattan_route_covers_all_streets() {
        let t = manhattan_route(3, 80.0, 25.0);
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(240.0, 240.0)).unwrap();
        for w in t.waypoints() {
            assert!(area.contains(w.position));
        }
        // 4 streets × 2 endpoints.
        assert_eq!(t.waypoints().len(), 8);
    }

    #[test]
    fn vanlan_round_is_closed() {
        let t = vanlan_round(0.0);
        let w = t.waypoints();
        assert_eq!(w[0].position, w[w.len() - 1].position);
    }
}
