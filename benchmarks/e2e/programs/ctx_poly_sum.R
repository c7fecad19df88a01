pc_sum <- function(data, len) {
  total <- 0
  i <- 1
  while (i <= len) {
    total <- total + data[[i]]
    i <- i + 1
  }
  total
}
ctx_poly_sum_run <- function(n, xi, xd, len) {
  s <- 0
  i <- 0
  while (i < n) {
    s <- s + pc_sum(xi, len)
    s <- s + pc_sum(xd, len)
    i <- i + 1
  }
  s
}
