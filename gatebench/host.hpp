// Host-speed calibration for the timed run.
//
// On a shared cloud host the speed of allocation- and pointer-heavy code
// moves by ±20% over seconds to minutes as other tenants load the caches and
// memory (measured on a 4-vCPU Xeon KVM guest: identical rounds of
// commit-stream ran at 206 to 360 ops/s inside one process with no page
// faults, system time or preemption, while a pure ALU loop stayed within
// ±6%). The LISA code under test is that kind of code, so its wall and CPU
// times follow the host, and runs of unchanged code minutes apart differ by
// more than a regression worth catching.
//
// The calibration kernel is fixed work of the same kind (string keys in an
// ordered map of string vectors) that lives in the benchmark and never
// changes with the program. The timed run runs it once after every op and
// scales each round's times by nominal / median kernel time of the round:
// that gives the round's figures at the host speed at which the kernel takes
// kNominalKernelMs, so the host's drift cancels while every change in the
// program stays in. Each store build behind setup_s is calibrated the same
// way, by kernel runs on either side of it. On the host above this cut the
// spread of five-run sets (IQR / median) from 0.10-0.20 to 0.02-0.05.
#pragma once

namespace gatebench {

/// The speed calibrated figures are reported at: the kernel taking 1 ms, a
/// round figure for its median on a 4-vCPU Intel Xeon (Sapphire Rapids) KVM
/// guest, Release build (run medians from 0.98 to 1.29 ms as the host's load
/// changed).
inline constexpr double kNominalKernelMs = 1.0;

/// Steady-clock time in ms.
double now_ms();

/// Runs the calibration kernel once; returns its wall time in ms.
double kernel_ms();

/// Median of `samples` kernel runs, on the calling thread's current CPU.
double sample_kernel_ms(int samples);

}  // namespace gatebench
