pf_step <- function(v, k) v + k
pf_sum <- function(a, b, n) {
  s <- 0
  x <- a
  h <- n %/% 2L
  i <- 1L
  while (i <= n) {
    if (i == h) x <- b
    s <- s + pf_step(x[[i]], 1L)
    i <- i + 1L
  }
  s
}
