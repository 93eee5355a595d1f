/* CPU affinity of the calling thread, as a bit mask of the CPUs below
   62 (the benchmark runs on small machines).  OCaml's Unix library has
   no binding for sched_getaffinity/sched_setaffinity. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* The calling thread's mask; 0 when it cannot be read. */
value perfbench_affinity_get(value unit)
{
  cpu_set_t set;
  long mask = 0;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(0);
  for (int cpu = 0; cpu < 62; cpu++)
    if (CPU_ISSET(cpu, &set)) mask |= 1L << cpu;
  return Val_long(mask);
}

/* Restrict the calling thread to [mask]; false when the kernel refuses. */
value perfbench_affinity_set(value mask)
{
  cpu_set_t set;
  long m = Long_val(mask);
  CPU_ZERO(&set);
  for (int cpu = 0; cpu < 62; cpu++)
    if (m & (1L << cpu)) CPU_SET(cpu, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
