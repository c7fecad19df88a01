madd <- function(a, b) a + b
call_scalar_run <- function(n, x) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- madd(s, x)
    i <- i + 1
  }
  s
}
