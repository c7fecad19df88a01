cc_inc <- function(x) x + 1
cc_dbl <- function(x) x * 2
cc_mix <- function(a, b) a - b
call_chain_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    a <- cc_inc(s)
    b <- cc_dbl(i)
    s <- cc_mix(a, b) + s - s + i
    i <- i + 1
  }
  s
}
