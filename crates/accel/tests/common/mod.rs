//! Test support shared by the accel integration tests.

pub mod golden;
