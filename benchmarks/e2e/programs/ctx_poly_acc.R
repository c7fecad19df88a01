pa_acc <- function(s, x, k) {
  r <- s + x * k
  r - k
}
ctx_poly_acc_run <- function(n) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + pa_acc(0L, 2L, 3L)
    s <- s + pa_acc(0.5, 2.5, 3.5)
    i <- i + 1
  }
  s
}
