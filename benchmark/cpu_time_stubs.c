/* Process CPU time in nanoseconds.  getrusage, behind Sys.time, has
   microsecond resolution, too coarse for requests of a few tens of
   microseconds. */

#include <time.h>
#include <caml/mlvalues.h>

value bench_cpu_time_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
