lz_add1 <- function(x) x + 1
lz_use <- function(v) v * 2
lazysum_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + lz_use(lz_add1(i))
    i <- i + 1
  }
  s
}
