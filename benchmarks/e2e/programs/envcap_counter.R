counter_run <- function(n) {
  total <- 0
  bump <- function(k) total <<- total + k
  i <- 0
  while (i < n) {
    bump(1)
    i <- i + 1
  }
  total
}
