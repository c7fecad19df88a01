pm_step <- function(a, b) {
  if (b) a + a else a
}
pm_wide <- function(v, len) {
  t <- 0
  j <- 1
  while (j <= len) {
    t <- t + v[[j]]
    j <- j + 1
  }
  t
}
ctx_poly_mix3_run <- function(n, xi, xd, len) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + pm_wide(xi, len)
    s <- s + pm_wide(xd, len)
    s <- s + pm_step(i, TRUE)
    i <- i + 1
  }
  s
}
