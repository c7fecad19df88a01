pf_mul <- function(u, v) u * v
pf_dot <- function(a, b, w, n) {
  s <- 0
  x <- a
  h <- n %/% 2L
  i <- 1L
  while (i <= n) {
    if (i == h) x <- b
    s <- s + pf_mul(x[[i]], w[[i]])
    i <- i + 1L
  }
  s
}
