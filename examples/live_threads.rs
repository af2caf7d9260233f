//! Real OS threads sharing one INCA accelerator — the deployment shape
//! the paper targets: independent ROS nodes, written by different
//! developers, each submitting CNN work "without knowing the status of
//! others". A camera thread, an FE client and a PR client communicate
//! over the [`LiveBus`]; a driver thread owns the accelerator engine and
//! serialises requests, with INCA's priorities resolving the conflicts.
//!
//! ```sh
//! cargo run --example live_threads
//! ```

use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use inca::accel::{AccelConfig, Engine, InterruptStrategy, TimingBackend};
use inca::compiler::Compiler;
use inca::isa::TaskSlot;
use inca::model::{zoo, Shape3};
use inca::runtime::live::LiveBus;

#[derive(Clone, Debug)]
enum Msg {
    Frame(u32),
    FeDone { frame: u32, response_us: f64 },
    PrDone { pass: u32, preemptions: u32 },
    Shutdown,
}

/// A request to the accelerator driver: run the program in `slot` once,
/// reply on `done`.
struct AccelRequest {
    slot: TaskSlot,
    done: Sender<(f64, u32)>, // (response µs, preemptions)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = AccelConfig::paper_big();
    let compiler = Compiler::new(cfg.arch);
    let fe_prog = compiler.compile_vi(&zoo::superpoint(Shape3::new(1, 120, 160))?)?;
    let pr_prog = compiler.compile_vi(&zoo::gem_resnet101(Shape3::new(3, 240, 320))?)?;
    let (fe_slot, pr_slot) = (TaskSlot::new(1)?, TaskSlot::new(3)?);

    let bus: LiveBus<Msg> = LiveBus::new();
    let (req_tx, req_rx) = unbounded::<AccelRequest>();

    // --- the accelerator driver: sole owner of the engine --------------
    // It drains *all* pending requests into the engine before advancing
    // virtual time, so a high-priority FE request arriving while PR runs
    // genuinely preempts it.
    let driver = {
        thread::spawn(move || {
            let mut engine =
                Engine::new(cfg, InterruptStrategy::VirtualInstruction, TimingBackend::new());
            engine.load(fe_slot, fe_prog).expect("load fe");
            engine.load(pr_slot, pr_prog).expect("load pr");
            let mut waiting: Vec<(TaskSlot, Sender<(f64, u32)>)> = Vec::new();
            loop {
                // Block only when the engine has nothing to do.
                if waiting.is_empty() {
                    match req_rx.recv() {
                        Ok(req) => {
                            engine.request_at(engine.now(), req.slot).expect("request");
                            waiting.push((req.slot, req.done));
                        }
                        Err(_) => break, // all clients gone
                    }
                }
                // Drain whatever else arrived meanwhile.
                for req in req_rx.try_iter() {
                    engine.request_at(engine.now(), req.slot).expect("request");
                    waiting.push((req.slot, req.done));
                }
                // Advance a slice of virtual time, report completions and
                // retire their records: a long-lived server stays flat.
                engine.run_until(engine.now() + 50_000).expect("run");
                let finished = engine.completed_jobs().len();
                for j in engine.completed_jobs() {
                    if let Some(pos) = waiting.iter().position(|(s, _)| *s == j.slot) {
                        let (_, done) = waiting.swap_remove(pos);
                        let _ = done.send((cfg.cycles_to_us(j.response()), j.preemptions));
                    }
                }
                engine.retire_completed(finished);
            }
        })
    };

    // --- FE client: one job per camera frame, high priority ------------
    let fe_client = {
        let bus = bus.clone();
        let rx = bus.subscribe("camera/image");
        let req_tx = req_tx.clone();
        thread::spawn(move || {
            for (_, msg) in rx.iter() {
                match msg {
                    Msg::Frame(i) => {
                        let (tx, done) = unbounded();
                        req_tx.send(AccelRequest { slot: fe_slot, done: tx }).unwrap();
                        let (response_us, _) = done.recv().unwrap();
                        bus.publish("fe/done", Msg::FeDone { frame: i, response_us });
                    }
                    Msg::Shutdown => break,
                    _ => {}
                }
            }
        })
    };

    // --- PR client: keeps the accelerator busy at low priority ---------
    let pr_client = {
        let bus = bus.clone();
        let rx = bus.subscribe("control");
        let req_tx = req_tx.clone();
        thread::spawn(move || {
            let mut pass = 0u32;
            loop {
                if rx.try_recv().is_ok() {
                    break; // any control message = shutdown
                }
                let (tx, done) = unbounded();
                req_tx.send(AccelRequest { slot: pr_slot, done: tx }).unwrap();
                let (_, preemptions) = done.recv().unwrap();
                pass += 1;
                bus.publish("pr/done", Msg::PrDone { pass, preemptions });
            }
        })
    };

    // --- observer + camera on the main thread ---------------------------
    let fe_done = bus.subscribe("fe/done");
    let pr_done = bus.subscribe("pr/done");
    let frames = 10u32;
    for i in 0..frames {
        bus.publish("camera/image", Msg::Frame(i));
        thread::sleep(Duration::from_millis(5));
    }

    let mut fe_seen = 0;
    while fe_seen < frames {
        if let Ok((_, Msg::FeDone { frame, response_us })) = fe_done.recv() {
            println!("FE frame {frame:>2}: response {response_us:>9.1} µs (virtual time)");
            fe_seen += 1;
        }
    }
    bus.publish("control", Msg::Shutdown);
    bus.publish("camera/image", Msg::Shutdown);
    drop(req_tx);

    fe_client.join().expect("fe client");
    pr_client.join().expect("pr client");
    driver.join().expect("driver");

    let mut pr_passes = 0;
    let mut preemptions = 0;
    while let Ok((_, Msg::PrDone { pass, preemptions: p })) = pr_done.try_recv() {
        pr_passes = pass;
        preemptions += p;
    }
    println!(
        "\nPR finished {pr_passes} passes and was preempted {preemptions} times while\n\
         {frames} FE frames were served — three independent threads, one accelerator,\n\
         no thread ever saw another's state."
    );
    Ok(())
}
