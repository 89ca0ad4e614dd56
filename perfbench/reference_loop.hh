/**
 * @file
 * A fixed reference computation timed between the benchmark's
 * operations, to correct host times for the machine's speed at that
 * moment. It uses no simulator code, so a change to the simulator
 * cannot move it.
 */

#ifndef PERFBENCH_REFERENCE_LOOP_HH
#define PERFBENCH_REFERENCE_LOOP_HH

namespace pb {

/**
 * Host seconds of one pass of the reference computation: the median
 * of three timed repetitions of a binary-heap push/pop mix (like an
 * event queue) and a floating-point stencil over a 1 MiB image (like
 * an app payload). About 10 ms at 2 GHz.
 */
double referenceLoopSeconds();

} // namespace pb

#endif // PERFBENCH_REFERENCE_LOOP_HH
