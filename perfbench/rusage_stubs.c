/* Peak resident set of the largest waited-for child process, in kB
   (getrusage RUSAGE_CHILDREN); the OCaml Unix library does not bind it. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_children_maxrss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  if (getrusage(RUSAGE_CHILDREN, &ru) != 0) return Val_long(-1);
  return Val_long(ru.ru_maxrss);
}
