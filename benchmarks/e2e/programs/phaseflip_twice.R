pf_inc <- function(v, k) v + k
pf_twice <- function(a, b, n) {
  s <- 0
  x <- a
  h1 <- n %/% 3L
  h2 <- h1 + h1
  i <- 1L
  while (i <= n) {
    if (i == h1) x <- b
    if (i == h2) x <- a
    s <- s + pf_inc(x[[i]], 1L)
    i <- i + 1L
  }
  s
}
